//! The chunked row store behind every [`crate::Relation`].
//!
//! Rows live in fixed-size chunks of [`CHUNK`] tuples, each behind an
//! [`Arc`]. Every chunk is full except the last, so row `i` sits at
//! `chunks[i >> 10][i & 1023]`. Cloning a store copies chunk pointers, not
//! tuples, and every mutator copies only the chunks it writes that someone
//! else still holds (copy-on-write per chunk via [`Arc::make_mut`]):
//!
//! * [`RowStore::push`] / [`Extend`] touch only the tail chunk;
//! * [`RowStore::set`] copies the one chunk holding the cell;
//! * [`RowStore::insert`], [`RowStore::retain_indexed`] and
//!   [`RowStore::reinsert`] rewrite the chunks from the first changed row
//!   onward and leave every chunk before it shared.
//!
//! A published snapshot and the writer that moved past it therefore share
//! all chunks the writer has not touched, and dropping the snapshot frees
//! only the chunks no one else holds.

use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

const CHUNK_SHIFT: u32 = 10;
/// Rows per chunk.
pub const CHUNK: usize = 1 << CHUNK_SHIFT;
const CHUNK_MASK: usize = CHUNK - 1;

/// An ordered sequence of tuples stored as `Arc`-shared chunks.
#[derive(Clone, Default)]
pub struct RowStore {
    chunks: Vec<Arc<Vec<Tuple>>>,
    len: usize,
}

/// Make room for one more row in a tail chunk without letting its
/// capacity pass [`CHUNK`] (a full chunk never grows again).
fn reserve_one(chunk: &mut Vec<Tuple>) {
    if chunk.len() == chunk.capacity() {
        let want = (chunk.len() * 2).clamp(4, CHUNK);
        chunk.reserve_exact(want - chunk.len());
    }
}

/// Check a chunk out for writing about `room` more rows into it. A chunk
/// another store still holds is copied with that room reserved, so the
/// copy does not reallocate on its first push.
fn checkout(chunk: &mut Arc<Vec<Tuple>>, room: usize) -> &mut Vec<Tuple> {
    if Arc::strong_count(chunk) > 1 {
        let mut copy = Vec::with_capacity((chunk.len() + room).min(CHUNK));
        copy.extend_from_slice(chunk);
        *chunk = Arc::new(copy);
    }
    Arc::make_mut(chunk)
}

impl RowStore {
    pub fn new() -> RowStore {
        RowStore::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get(&self, i: usize) -> Option<&Tuple> {
        if i < self.len {
            Some(&self[i])
        } else {
            None
        }
    }

    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Iterate the rows from index `start` on (nothing if `start` is past
    /// the end).
    pub fn iter_from(&self, start: usize) -> Iter<'_> {
        let start = start.min(self.len);
        let mut chunks = self.chunks[start >> CHUNK_SHIFT..].iter();
        let front = match chunks.next() {
            Some(c) => c[start & CHUNK_MASK..].iter(),
            None => [].iter(),
        };
        Iter {
            chunks,
            front,
            remaining: self.len - start,
        }
    }

    /// Call `f(i, row)` on every row in order, mutably. Checks each chunk
    /// out once (copying it if another store still shares it) and walks
    /// it as a plain slice.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut Tuple)) {
        for (k, chunk) in self.chunks.iter_mut().enumerate() {
            let base = k << CHUNK_SHIFT;
            for (o, row) in Arc::make_mut(chunk).iter_mut().enumerate() {
                f(base + o, row);
            }
        }
    }

    pub fn to_vec(&self) -> Vec<Tuple> {
        self.iter().cloned().collect()
    }

    /// Append one row: writes only the tail chunk (a copy of it if shared).
    pub fn push(&mut self, tuple: Tuple) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK => {
                let tail = checkout(tail, 1);
                reserve_one(tail);
                tail.push(tuple);
            }
            _ => self.chunks.push(Arc::new(vec![tuple])),
        }
        self.len += 1;
    }

    pub fn pop(&mut self) -> Option<Tuple> {
        let tail = self.chunks.last_mut()?;
        let tuple = Arc::make_mut(tail).pop();
        if tail.is_empty() {
            self.chunks.pop();
        }
        self.len -= 1;
        tuple
    }

    /// Overwrite the value at (`row`, `col`), returning the previous one.
    /// Copies the row's chunk if shared. Panics if `row` is out of range,
    /// like slice indexing.
    pub fn set(&mut self, row: usize, col: usize, value: Value) -> Value {
        assert!(row < self.len, "row {row} out of range ({} rows)", self.len);
        let tuple = &mut Arc::make_mut(&mut self.chunks[row >> CHUNK_SHIFT])[row & CHUNK_MASK];
        let old = *tuple.get(col);
        tuple.set(col, value);
        old
    }

    /// Overwrite column `col` with `value` in every row of `rows`. A run
    /// of rows in one chunk checks that chunk out (copying it if shared)
    /// once, so ascending rows cost one copy-on-write check per chunk.
    /// Panics on an out-of-range row, like slice indexing.
    pub fn set_each(&mut self, rows: impl IntoIterator<Item = usize>, col: usize, value: Value) {
        let mut rows = rows.into_iter();
        let Some(mut row) = rows.next() else {
            return;
        };
        loop {
            let k = row >> CHUNK_SHIFT;
            let chunk = Arc::make_mut(&mut self.chunks[k]).as_mut_slice();
            loop {
                chunk[row & CHUNK_MASK].set(col, value);
                match rows.next() {
                    None => return,
                    Some(next) => row = next,
                }
                if row >> CHUNK_SHIFT != k {
                    break;
                }
            }
        }
    }

    /// Insert a row at position `at`, shifting later rows up by one. Each
    /// full chunk from `at` onward passes its last row on to the next.
    /// Panics if `at > len`.
    pub fn insert(&mut self, at: usize, tuple: Tuple) {
        assert!(
            at <= self.len,
            "insert at {at} past the end ({} rows)",
            self.len
        );
        if at == self.len {
            return self.push(tuple);
        }
        let mut carry = tuple;
        let (mut k, mut off) = (at >> CHUNK_SHIFT, at & CHUNK_MASK);
        while k < self.chunks.len() {
            let chunk = checkout(&mut self.chunks[k], 1);
            let spill = if chunk.len() == CHUNK {
                chunk.pop()
            } else {
                None
            };
            if spill.is_none() {
                reserve_one(chunk);
            }
            chunk.insert(off, carry);
            match spill {
                Some(t) => carry = t,
                None => {
                    self.len += 1;
                    return;
                }
            }
            k += 1;
            off = 0;
        }
        self.chunks.push(Arc::new(vec![carry]));
        self.len += 1;
    }

    /// Detach every chunk from `k` onward and return their rows, owned:
    /// a chunk no one else holds gives up its tuples, a shared one is
    /// cloned. Chunks before `k` are full, so `len` becomes `k * CHUNK`.
    fn detach_from(&mut self, k: usize) -> impl Iterator<Item = Tuple> {
        let tail = self.chunks.split_off(k.min(self.chunks.len()));
        self.len = self.len.min(k * CHUNK);
        tail.into_iter()
            .flat_map(|c| Arc::try_unwrap(c).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Keep the rows whose index passes `keep` (called once per row, in
    /// order), preserving order, and hand every dropped row to `dropped`
    /// with its old index, ascending. The chunks before the first dropped
    /// row stay shared; the rest are compacted in place, reusing the
    /// buffers of chunks no one else holds.
    pub fn retain_indexed(
        &mut self,
        mut keep: impl FnMut(usize) -> bool,
        mut dropped: impl FnMut(usize, Tuple),
    ) {
        let Some(first) = (0..self.len).find(|&i| !keep(i)) else {
            return;
        };
        let base = first & !CHUNK_MASK;
        let mut bufs: Vec<Vec<Tuple>> = self
            .chunks
            .drain(base >> CHUNK_SHIFT..)
            .map(|c| Arc::try_unwrap(c).unwrap_or_else(|shared| (*shared).clone()))
            .collect();
        // Retain within each chunk (`keep` already passed every row
        // before `first`)...
        let mut i = base;
        for buf in &mut bufs {
            buf.retain_mut(|t| {
                i += 1;
                let at = i - 1;
                if at < first || (at > first && keep(at)) {
                    return true;
                }
                dropped(at, std::mem::replace(t, Tuple::new(Vec::new())));
                false
            });
        }
        // ...then refill each chunk from the front of the ones after it,
        // so every chunk but the last is full again.
        let mut k = 0;
        for j in 1..bufs.len() {
            let (left, right) = bufs.split_at_mut(j);
            let src = &mut right[0];
            while k < j && !src.is_empty() {
                let dst = &mut left[k];
                let m = (CHUNK - dst.len()).min(src.len());
                dst.reserve_exact(m);
                dst.extend(src.drain(..m));
                if dst.len() == CHUNK {
                    k += 1;
                }
            }
        }
        bufs.retain(|b| !b.is_empty());
        self.len = base + bufs.iter().map(Vec::len).sum::<usize>();
        self.chunks.extend(bufs.into_iter().map(Arc::new));
    }

    /// Put rows back at their original positions — the inverse of a
    /// [`RowStore::retain_indexed`] whose dropped rows were collected in
    /// ascending index order. The chunks before the first position stay
    /// shared.
    pub fn reinsert(&mut self, rows: Vec<(u32, Tuple)>) {
        let Some(&(first, _)) = rows.first() else {
            return;
        };
        let tail = self.detach_from(first as usize >> CHUNK_SHIFT);
        let mut pending = rows.into_iter().peekable();
        for t in tail {
            while let Some((_, back)) = pending.next_if(|(i, _)| *i as usize <= self.len) {
                self.push(back);
            }
            self.push(t);
        }
        self.extend(pending.map(|(_, t)| t));
    }

    /// Stable sort, rebuilding every chunk.
    pub fn sort_by(&mut self, cmp: impl FnMut(&Tuple, &Tuple) -> std::cmp::Ordering) {
        let mut all: Vec<Tuple> = self.detach_from(0).collect();
        all.sort_by(cmp);
        self.extend(all);
    }

    pub fn reverse(&mut self) {
        let all: Vec<Tuple> = self.detach_from(0).collect();
        self.extend(all.into_iter().rev());
    }
}

#[cfg(test)]
impl RowStore {
    /// Every chunk is full except the last, no chunk is empty or has
    /// grown past [`CHUNK`], and `len` counts the rows.
    pub(crate) fn assert_shape(&self) {
        let n = self.chunks.len();
        for (k, c) in self.chunks.iter().enumerate() {
            assert!(!c.is_empty(), "empty chunk {k}");
            assert!(c.capacity() <= CHUNK, "chunk {k} overgrew");
            if k + 1 < n {
                assert_eq!(c.len(), CHUNK, "chunk {k} of {n} not full");
            }
        }
        assert_eq!(self.chunks.iter().map(|c| c.len()).sum::<usize>(), self.len);
    }
}

impl Index<usize> for RowStore {
    type Output = Tuple;

    fn index(&self, i: usize) -> &Tuple {
        &self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK]
    }
}

impl Extend<Tuple> for RowStore {
    /// Fills the tail chunk, then fresh chunks sized from the iterator's
    /// lower size bound, one chunk at a time. A chunk is checked out only
    /// once a row for it is in hand, so an empty extend copies nothing.
    fn extend<I: IntoIterator<Item = Tuple>>(&mut self, iter: I) {
        let mut iter = iter.into_iter().peekable();
        while iter.peek().is_some() {
            let room = iter.size_hint().0.max(1);
            if self.chunks.last().is_none_or(|tail| tail.len() == CHUNK) {
                self.chunks
                    .push(Arc::new(Vec::with_capacity(room.min(CHUNK))));
            }
            let Some(tail) = self.chunks.last_mut() else {
                return;
            };
            let tail = checkout(tail, room);
            let before = tail.len();
            for t in iter.by_ref().take(CHUNK - before) {
                reserve_one(tail);
                tail.push(t);
            }
            self.len += tail.len() - before;
        }
    }
}

impl FromIterator<Tuple> for RowStore {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> RowStore {
        let mut rows = RowStore::new();
        rows.extend(iter);
        rows
    }
}

impl<'a> IntoIterator for &'a RowStore {
    type Item = &'a Tuple;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for RowStore {
    fn eq(&self, other: &RowStore) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for RowStore {}

impl PartialEq<[Tuple]> for RowStore {
    fn eq(&self, other: &[Tuple]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl<const N: usize> PartialEq<[Tuple; N]> for RowStore {
    fn eq(&self, other: &[Tuple; N]) -> bool {
        *self == other[..]
    }
}

impl fmt::Debug for RowStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Borrowing iterator over a [`RowStore`], in row order.
#[derive(Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Arc<Vec<Tuple>>>,
    front: std::slice::Iter<'a, Tuple>,
    remaining: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            if let Some(t) = self.front.next() {
                self.remaining -= 1;
                return Some(t);
            }
            self.front = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl std::iter::FusedIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i), Value::Int(-i)])
    }

    fn store(n: usize) -> RowStore {
        (0..n as i64).map(row).collect()
    }

    fn shared(a: &RowStore, b: &RowStore) -> Vec<bool> {
        a.chunks
            .iter()
            .zip(&b.chunks)
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect()
    }

    #[test]
    fn small_edits_under_a_clone_copy_one_chunk() {
        let base = store(5 * CHUNK + 10);
        let chunks = base.chunks.len();

        let mut appended = base.clone();
        appended.push(row(-1));
        let mut want = vec![true; chunks];
        want[chunks - 1] = false;
        assert_eq!(shared(&base, &appended), want);

        let mut full = store(4 * CHUNK);
        let held = full.clone();
        full.push(row(-1));
        assert_eq!(
            shared(&held, &full),
            vec![true; 4],
            "full tail stays shared"
        );

        let mut extended = base.clone();
        extended.extend(std::iter::empty());
        assert_eq!(
            shared(&base, &extended),
            vec![true; chunks],
            "an empty extend copies nothing"
        );

        let mut updated = base.clone();
        updated.set(2 * CHUNK + 7, 0, Value::Int(0));
        let mut want = vec![true; chunks];
        want[2] = false;
        assert_eq!(shared(&base, &updated), want);

        let mut deleted = base.clone();
        deleted.retain_indexed(|i| i != 3 * CHUNK + 1, |_, _| {});
        assert_eq!(shared(&base, &deleted)[..3], [true, true, true]);
        assert_eq!(deleted.len(), base.len() - 1);
    }

    #[test]
    fn iterates_in_row_order_across_chunks() {
        let s = store(2 * CHUNK + 3);
        for start in [0, 5, CHUNK, 2 * CHUNK + 2, 2 * CHUNK + 3, 9 * CHUNK] {
            let want: Vec<Tuple> = (start.min(s.len())..s.len())
                .map(|i| row(i as i64))
                .collect();
            assert_eq!(s.iter_from(start).len(), want.len());
            assert!(s.iter_from(start).eq(want.iter()), "from {start}");
        }
        assert_eq!(store(CHUNK).iter_from(CHUNK).next(), None);
        let mut it = s.iter();
        assert_eq!(it.len(), s.len());
        assert!((0..s.len()).all(|i| it.next() == Some(&row(i as i64))));
        assert_eq!((it.len(), it.next()), (0, None));
        assert_eq!(
            format!("{:?}", store(2)),
            format!("{:?}", vec![row(0), row(1)])
        );
    }
}
