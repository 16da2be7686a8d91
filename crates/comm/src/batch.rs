//! Fixed-arity batches of partial matches.
//!
//! Every operator in HUGE processes data in *batches* (§4.2): a batch of
//! partial matches is the minimum scheduling and communication unit. A
//! partial match is a compact array of data-vertex ids (one per bound query
//! vertex).
//!
//! [`ColBatch`] is the one currency, between operators and on the wire: one
//! dense `Vec<u32>` per bound query vertex, plus an optional *selection
//! vector* of surviving row indices. An extension appends one candidate
//! column instead of rewriting `a + 1`-wide rows, a filter narrows the
//! selection instead of compacting the data, the shuffle scatters each column
//! through the selection into dense per-destination batches, and the router,
//! the join build, its spill files and partition ships move those columns as
//! they are — nothing between an extend's output and a probe's output is
//! transposed.
//!
//! [`RowBatch`] — `n` rows of arity `a` as one flat `Vec<u32>` — is what is
//! left of the row-major layout: the scan cursor still assembles `[src, dst]`
//! rows and `SCAN` transposes them once ([`ColBatch::from_rows`]); tests use
//! [`ColBatch::to_rows`] to compare against row-at-a-time references.

use huge_graph::VertexId;

/// A batch of fixed-arity rows of data-vertex ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowBatch {
    arity: usize,
    data: Vec<VertexId>,
}

impl RowBatch {
    /// Creates an empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "rows must bind at least one query vertex");
        RowBatch {
            arity,
            data: Vec::new(),
        }
    }

    /// Creates an empty batch with space reserved for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        assert!(arity > 0);
        RowBatch {
            arity,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Builds a batch from a flat data vector (`data.len()` must be a
    /// multiple of `arity`).
    pub fn from_flat(arity: usize, data: Vec<VertexId>) -> Self {
        assert!(arity > 0);
        assert_eq!(data.len() % arity, 0, "flat data not a multiple of arity");
        RowBatch { arity, data }
    }

    /// Number of columns per row.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// `true` when the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if `row.len() != arity`.
    #[inline]
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert_eq!(row.len(), self.arity);
        self.data.extend_from_slice(row);
    }

    /// The `i`-th row.
    #[inline]
    pub fn row(&self, i: usize) -> &[VertexId] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[VertexId]> {
        self.data.chunks_exact(self.arity)
    }

    /// Moves all rows of `other` into `self`.
    ///
    /// # Panics
    /// Panics if arities differ.
    pub fn append(&mut self, other: &mut RowBatch) {
        assert_eq!(self.arity, other.arity, "cannot append mismatched arity");
        self.data.append(&mut other.data);
    }

    /// Heap bytes of the row data.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<VertexId>()) as u64
    }

    /// The flat underlying data.
    pub fn as_flat(&self) -> &[VertexId] {
        &self.data
    }
}

/// A batch of fixed-arity partial matches in columnar layout.
///
/// Column `c` holds the binding of query vertex `c` for every *physical*
/// row; all columns have equal length. An optional selection vector — a
/// strictly ascending list of physical row indices — marks the rows that
/// are logically present. Filters narrow the selection without touching
/// column data; [`ColBatch::compact`] materialises the selection when a
/// dense layout is needed (chunking, appending).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColBatch {
    cols: Vec<Vec<VertexId>>,
    sel: Option<Vec<u32>>,
}

impl ColBatch {
    /// Creates an empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "rows must bind at least one query vertex");
        ColBatch {
            cols: vec![Vec::new(); arity],
            sel: None,
        }
    }

    /// Creates an empty batch with space reserved for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        assert!(arity > 0);
        ColBatch {
            cols: (0..arity).map(|_| Vec::with_capacity(rows)).collect(),
            sel: None,
        }
    }

    /// Builds a batch from pre-assembled columns of equal length.
    pub fn from_columns(cols: Vec<Vec<VertexId>>) -> Self {
        assert!(!cols.is_empty(), "rows must bind at least one query vertex");
        assert!(
            cols.windows(2).all(|w| w[0].len() == w[1].len()),
            "columns must have equal length"
        );
        ColBatch { cols, sel: None }
    }

    /// Transposes a row-major batch into columns (no selection).
    pub fn from_rows(rows: &RowBatch) -> Self {
        let arity = rows.arity();
        let mut cols: Vec<Vec<VertexId>> =
            (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in rows.rows() {
            for (c, &v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        ColBatch { cols, sel: None }
    }

    /// Transposes into a row-major batch, honouring the selection.
    pub fn to_rows(&self) -> RowBatch {
        let arity = self.arity();
        let mut out = RowBatch::with_capacity(arity, self.len());
        let mut row = Vec::with_capacity(arity);
        for i in 0..self.len() {
            row.clear();
            self.read_row(i, &mut row);
            out.push_row(&row);
        }
        out
    }

    /// Number of columns (bound query vertices).
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of *logical* rows (selected rows when a selection is set).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.cols[0].len(),
        }
    }

    /// Number of physical rows stored in the columns.
    #[inline]
    pub fn physical_rows(&self) -> usize {
        self.cols[0].len()
    }

    /// `true` when no logical rows remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The binding of query vertex `col` in logical row `i`.
    #[inline]
    pub fn value(&self, col: usize, i: usize) -> VertexId {
        self.cols[col][self.physical_index(i)]
    }

    /// Physical index of logical row `i` (what a narrowed selection must
    /// reference when filters re-select an already-selected batch).
    #[inline]
    pub fn physical_index(&self, i: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[i] as usize,
            None => i,
        }
    }

    /// Appends the values of logical row `i` to `out`.
    #[inline]
    pub fn read_row(&self, i: usize, out: &mut Vec<VertexId>) {
        let p = self.physical_index(i);
        for col in &self.cols {
            out.push(col[p]);
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics (debug) if a selection is set — builders append to dense
    /// batches only.
    #[inline]
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert!(self.sel.is_none(), "cannot append under a selection");
        debug_assert_eq!(row.len(), self.arity());
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// The physical (unfiltered) data of column `c`.
    #[inline]
    pub fn column(&self, c: usize) -> &[VertexId] {
        &self.cols[c]
    }

    /// The selection vector, if one is set.
    pub fn selection(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Installs a selection vector (strictly ascending physical indices).
    ///
    /// Replaces any existing selection, so callers narrowing an already
    /// selected batch must compose indices themselves.
    pub fn set_selection(&mut self, sel: Vec<u32>) {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        debug_assert!(
            sel.last()
                .is_none_or(|&i| (i as usize) < self.physical_rows()),
            "selection index out of range"
        );
        self.sel = Some(sel);
    }

    /// Materialises the selection: unselected rows are discarded and the
    /// selection vector is dropped. No-op for dense batches.
    pub fn compact(&mut self) {
        let Some(sel) = self.sel.take() else { return };
        for col in &mut self.cols {
            for (w, &p) in sel.iter().enumerate() {
                col[w] = col[p as usize];
            }
            col.truncate(sel.len());
        }
    }

    /// Moves all logical rows of `other` into `self` (both compacted).
    ///
    /// # Panics
    /// Panics if arities differ.
    pub fn append(&mut self, other: &mut ColBatch) {
        assert_eq!(
            self.arity(),
            other.arity(),
            "cannot append mismatched arity"
        );
        self.compact();
        other.compact();
        for (dst, src) in self.cols.iter_mut().zip(other.cols.iter_mut()) {
            dst.append(src);
        }
    }

    /// Splits off the last `rows` logical rows into a new batch (work
    /// stealing hands half a queue entry to another worker).
    pub fn split_off_back(&mut self, rows: usize) -> ColBatch {
        self.compact();
        let rows = rows.min(self.len());
        let at = self.physical_rows() - rows;
        ColBatch {
            cols: self.cols.iter_mut().map(|c| c.split_off(at)).collect(),
            sel: None,
        }
    }

    /// Splits this batch into dense chunks of at most `rows_per_chunk`
    /// logical rows. A batch that already fits is handed back as-is (after
    /// compaction), so the common case moves buffers instead of copying.
    pub fn split_into_chunks(mut self, rows_per_chunk: usize) -> Vec<ColBatch> {
        assert!(rows_per_chunk > 0);
        self.compact();
        if self.len() <= rows_per_chunk {
            return vec![self];
        }
        let arity = self.arity();
        let chunks = self.len().div_ceil(rows_per_chunk);
        let mut out: Vec<ColBatch> = (0..chunks)
            .map(|_| ColBatch::with_capacity(arity, rows_per_chunk))
            .collect();
        for (c, col) in self.cols.into_iter().enumerate() {
            for (k, piece) in col.chunks(rows_per_chunk).enumerate() {
                out[k].cols[c].extend_from_slice(piece);
            }
        }
        out
    }

    /// Heap bytes held by the batch: column data plus the selection vector.
    /// This is what queue accounting and the memory governor charge.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        let vals: usize = self.cols.iter().map(Vec::len).sum();
        let sel = self.sel.as_ref().map_or(0, Vec::len);
        (vals * std::mem::size_of::<VertexId>() + sel * std::mem::size_of::<u32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_rows() {
        let mut b = RowBatch::new(3);
        b.push_row(&[1, 2, 3]);
        b.push_row(&[4, 5, 6]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), &[4, 5, 6]);
        assert_eq!(b.rows().count(), 2);
        assert_eq!(b.byte_size(), 24);
        assert!(!b.is_empty());
    }

    #[test]
    fn append_and_split() {
        let mut a = ColBatch::from_columns(vec![vec![1, 3, 5], vec![2, 4, 6]]);
        let mut b = ColBatch::from_columns(vec![vec![7], vec![8]]);
        a.append(&mut b);
        assert_eq!(a.len(), 4);
        assert!(b.is_empty());
        let tail = a.split_off_back(2);
        assert_eq!(a.len(), 2);
        assert_eq!(tail.to_rows().as_flat(), &[5, 6, 7, 8]);
    }

    #[test]
    fn chunked_yields_every_row_in_order() {
        let b = ColBatch::from_rows(&RowBatch::from_flat(2, (0..20).collect()));
        let chunks = b.split_into_chunks(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[3].len(), 1);
        let flat: Vec<u32> = chunks
            .iter()
            .flat_map(|c| c.to_rows().as_flat().to_vec())
            .collect();
        assert_eq!(flat, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn chunked_single_chunk_reuses_the_buffer() {
        let b = ColBatch::from_columns(vec![(0..10).collect(), (10..20).collect()]);
        let ptrs = [b.column(0).as_ptr(), b.column(1).as_ptr()];
        let mut chunks = b.split_into_chunks(100);
        let only = chunks.pop().unwrap();
        // The whole batch fits in one chunk: same allocations, no copy.
        assert_eq!([only.column(0).as_ptr(), only.column(1).as_ptr()], ptrs);
        assert_eq!(only.len(), 10);
        assert!(chunks.is_empty());
    }

    #[test]
    fn split_off_more_than_len_takes_everything() {
        let mut b = ColBatch::from_columns(vec![vec![1, 2, 3]]);
        let tail = b.split_off_back(10);
        assert_eq!(tail.len(), 3);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "multiple of arity")]
    fn from_flat_checks_arity() {
        RowBatch::from_flat(3, vec![1, 2, 3, 4]);
    }

    #[test]
    fn col_batch_round_trips_rows() {
        let rows = RowBatch::from_flat(3, (0..12).collect());
        let cols = ColBatch::from_rows(&rows);
        assert_eq!(cols.arity(), 3);
        assert_eq!(cols.len(), 4);
        assert_eq!(cols.column(0), &[0, 3, 6, 9]);
        assert_eq!(cols.column(2), &[2, 5, 8, 11]);
        assert_eq!(cols.to_rows(), rows);
    }

    #[test]
    fn col_batch_selection_filters_rows() {
        let rows = RowBatch::from_flat(2, (0..10).collect());
        let mut cols = ColBatch::from_rows(&rows);
        cols.set_selection(vec![1, 3, 4]);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.physical_rows(), 5);
        assert_eq!(cols.value(0, 0), 2);
        assert_eq!(cols.value(1, 2), 9);
        let mut row = Vec::new();
        cols.read_row(1, &mut row);
        assert_eq!(row, vec![6, 7]);
        // Conversion honours the selection.
        let back = cols.to_rows();
        assert_eq!(back.len(), 3);
        assert_eq!(back.row(0), &[2, 3]);
        assert_eq!(back.row(2), &[8, 9]);
        // byte_size charges data + selection until compaction.
        assert_eq!(cols.byte_size(), (10 + 3) * 4);
        cols.compact();
        assert_eq!(cols.byte_size(), 6 * 4);
        assert_eq!(cols.selection(), None);
        assert_eq!(cols.to_rows(), back);
    }

    #[test]
    fn col_batch_push_and_append() {
        let mut a = ColBatch::new(2);
        a.push_row(&[1, 2]);
        a.push_row(&[3, 4]);
        let mut b = ColBatch::from_columns(vec![vec![5, 7], vec![6, 8]]);
        b.set_selection(vec![1]);
        a.append(&mut b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.column(0), &[1, 3, 7]);
        assert_eq!(a.column(1), &[2, 4, 8]);
        assert!(b.is_empty());
    }

    #[test]
    fn col_batch_split_into_chunks_is_dense_and_total() {
        let mut cols = ColBatch::from_rows(&RowBatch::from_flat(2, (0..40).collect()));
        cols.set_selection((0..20).filter(|i| i % 2 == 0).collect());
        let chunks = cols.split_into_chunks(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[3].len(), 1);
        let first: Vec<u32> = chunks.iter().flat_map(|c| c.column(0).to_vec()).collect();
        assert_eq!(first, vec![0, 4, 8, 12, 16, 20, 24, 28, 32, 36]);
        // A batch that fits in one chunk is returned whole.
        let small = ColBatch::from_columns(vec![vec![1, 2]]);
        let same = small.clone().split_into_chunks(10);
        assert_eq!(same, vec![small]);
    }

    #[test]
    fn col_batch_split_off_back() {
        let mut cols = ColBatch::from_columns(vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]]);
        let tail = cols.split_off_back(1);
        assert_eq!(cols.len(), 3);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail.column(0), &[4]);
        assert_eq!(tail.column(1), &[8]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn col_batch_checks_column_lengths() {
        ColBatch::from_columns(vec![vec![1, 2], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "mismatched arity")]
    fn append_checks_arity() {
        let mut a = RowBatch::new(2);
        let mut b = RowBatch::new(3);
        a.append(&mut b);
    }
}
