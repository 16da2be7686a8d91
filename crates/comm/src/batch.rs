//! Fixed-arity batches of partial matches.
//!
//! Every operator in HUGE processes data in *batches* (§4.2): a batch of
//! partial matches is the minimum scheduling and communication unit. A
//! partial match is a compact array of data-vertex ids (one per bound query
//! vertex).
//!
//! [`ColBatch`] is the one currency, between operators and on the wire: one
//! `Vec<u32>` per bound query vertex, in one of two layouts. Both are read
//! by `(run, row)`: [`ColBatch::run_rows`] gives a run's rows, and a run's
//! index reads its prefix columns, a row's index the newest column.
//!
//! * **Dense** — every column holds one value per row, and every row is a
//!   run of one. What the join probe produces, and what the shuffle ships
//!   when a batch has no runs or is keyed on its newest column.
//! * **Runs** — what the scan cursor and a match-mode extend emit, and what
//!   the shuffle ships when every key column is a prefix column (each run
//!   whole, to one machine). An extend's output is `(input row ×
//!   that row's candidates)`, so all columns but the newest are constant over
//!   the candidates of one input row: they hold one value per **run**, the
//!   newest column one value per **row**, and `run_ends[r]` is the row at
//!   which run `r` ends (cumulative, non-decreasing — a run may be empty).
//!   [`ColBatch::len`] stays the number of rows and
//!   [`ColBatch::byte_size`] counts what is actually held, so a hub row that
//!   expands 200× costs the queue one candidate column, not `arity + 1`.
//!
//! **Where rows are materialised.** Everything between two extends —
//! re-chunking, the operator queues, stealing, the memory ledger — carries
//! runs as they are, and so do the wire and the receiving join (its Grace
//! partitions, builds, spill files and partition ships) when the join key
//! lies in the prefix. [`ColBatch::flatten`] (or its borrowing twin
//! [`ColBatch::flattened`]) is for the consumers that need rows: the key
//! partitioner (the shuffle's and the join's Grace scatter) for a batch
//! keyed on its newest column, the owner partitioner, the collect sink,
//! [`ColBatch::to_rows`], and [`ColBatch::append`] of a run batch and a
//! dense one. Two run batches append as runs.
//!
//! [`RowBatch`] — `n` rows of arity `a` as one flat `Vec<u32>` — is what is
//! left of the row-major layout: the scan cursor still assembles `[src, dst]`
//! rows and `SCAN` regroups them once; tests use [`ColBatch::to_rows`] to
//! compare against row-at-a-time references.

use std::borrow::Cow;
use std::ops::Range;

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
/// Column `c` holds the binding of query vertex `c`. In a dense batch every
/// column has one value per row. In a run batch (`run_ends` set) every
/// column but the newest has one value per run and the newest one per row;
/// see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColBatch {
    cols: Vec<Vec<VertexId>>,
    run_ends: Option<Vec<u32>>,
}

impl ColBatch {
    /// Creates an empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "rows must bind at least one query vertex");
        ColBatch::from_columns(vec![Vec::new(); arity])
    }

    /// Creates an empty batch with space reserved for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        assert!(arity > 0);
        ColBatch::from_columns((0..arity).map(|_| Vec::with_capacity(rows)).collect())
    }

    /// Builds a dense batch from pre-assembled columns of equal length.
    pub fn from_columns(cols: Vec<Vec<VertexId>>) -> Self {
        assert!(!cols.is_empty(), "rows must bind at least one query vertex");
        assert!(
            cols.windows(2).all(|w| w[0].len() == w[1].len()),
            "columns must have equal length"
        );
        ColBatch {
            cols,
            run_ends: None,
        }
    }

    /// Builds a run batch: every column but the last holds one value per
    /// run, the last one value per row, and `run_ends[r]` is the (exclusive)
    /// row at which run `r` ends.
    ///
    /// # Panics
    /// Panics if the run ends decrease, do not end at the newest column's
    /// length, or a prefix column does not have one value per run.
    pub fn from_runs(cols: Vec<Vec<VertexId>>, run_ends: Vec<u32>) -> Self {
        let (newest, prefix) = cols.split_last().expect("rows bind a query vertex");
        assert!(
            prefix.iter().all(|c| c.len() == run_ends.len()),
            "prefix columns must hold one value per run"
        );
        assert!(
            run_ends.windows(2).all(|w| w[0] <= w[1]),
            "run ends must not decrease"
        );
        assert_eq!(
            run_ends.last().map_or(0, |&e| e as usize),
            newest.len(),
            "the last run must end at the newest column's length"
        );
        ColBatch {
            cols,
            run_ends: Some(run_ends),
        }
    }

    /// Transposes a row-major batch into dense columns.
    pub fn from_rows(rows: &RowBatch) -> Self {
        let arity = rows.arity();
        let mut cols: Vec<Vec<VertexId>> =
            (0..arity).map(|_| Vec::with_capacity(rows.len())).collect();
        for row in rows.rows() {
            for (c, &v) in row.iter().enumerate() {
                cols[c].push(v);
            }
        }
        ColBatch::from_columns(cols)
    }

    /// Transposes into a row-major batch, expanding runs.
    pub fn to_rows(&self) -> RowBatch {
        let dense = self.flattened();
        let arity = dense.arity();
        let mut out = RowBatch::with_capacity(arity, dense.len());
        let mut row = Vec::with_capacity(arity);
        for i in 0..dense.len() {
            row.clear();
            dense.read_row(i, &mut row);
            out.push_row(&row);
        }
        out
    }

    /// Number of columns (bound query vertices).
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows: the newest column's length (in every column, for a
    /// batch without runs).
    #[inline]
    pub fn len(&self) -> usize {
        self.cols[self.cols.len() - 1].len()
    }

    /// `true` when no rows remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the values of row `i` of a dense batch to `out`; flatten a
    /// run batch first.
    ///
    /// # Panics
    /// Panics if the batch has runs: its prefix columns are not indexed by
    /// row.
    #[inline]
    pub fn read_row(&self, i: usize, out: &mut Vec<VertexId>) {
        assert!(
            self.run_ends.is_none(),
            "rows are read from dense batches only"
        );
        out.extend(self.cols.iter().map(|col| col[i]));
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics (debug) if runs are set — builders append to dense batches
    /// only.
    #[inline]
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert!(
            self.run_ends.is_none(),
            "rows are appended to dense batches only"
        );
        debug_assert_eq!(row.len(), self.arity());
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// The data of column `c`: one value per row, or — for every column but
    /// the newest of a run batch — one value per run.
    #[inline]
    pub fn column(&self, c: usize) -> &[VertexId] {
        &self.cols[c]
    }

    /// The run ends, if this is a run batch.
    pub fn run_ends(&self) -> Option<&[u32]> {
        self.run_ends.as_deref()
    }

    /// Number of runs; a batch without run structure is the degenerate case
    /// in which every row is a run of one.
    #[inline]
    pub fn runs(&self) -> usize {
        match &self.run_ends {
            Some(ends) => ends.len(),
            None => self.len(),
        }
    }

    /// The rows of run `r` (possibly none).
    #[inline]
    pub fn run_rows(&self, r: usize) -> Range<usize> {
        match &self.run_ends {
            Some(ends) => r.checked_sub(1).map_or(0, |p| ends[p] as usize)..ends[r] as usize,
            None => r..r + 1,
        }
    }

    /// Materialises the runs: every prefix value is written once per row of
    /// its run and the run ends are dropped. No-op without runs. This is the
    /// only per-output-row gather of prefix columns; see the module docs for
    /// who may call it.
    pub fn flatten(&mut self) {
        let Some(ends) = self.run_ends.take() else {
            return;
        };
        let (newest, prefix) = self.cols.split_last_mut().expect("arity > 0");
        for col in prefix {
            let mut dense = Vec::with_capacity(newest.len());
            let mut start = 0;
            for (&v, &end) in col.iter().zip(&ends) {
                dense.extend(std::iter::repeat_n(v, (end - start) as usize));
                start = end;
            }
            *col = dense;
        }
    }

    /// `self` if it has no runs, a flattened copy otherwise (for consumers
    /// that need rows but only borrow the batch).
    pub fn flattened(&self) -> Cow<'_, ColBatch> {
        let mut dense = Cow::Borrowed(self);
        if self.run_ends.is_some() {
            dense.to_mut().flatten();
        }
        dense
    }

    /// Moves all rows of `other` into `self`. Two run batches concatenate as
    /// runs (`other`'s run ends shifted past `self`'s rows, `other` left an
    /// empty run batch); any other pair is made dense first.
    ///
    /// # Panics
    /// Panics if arities differ, or if two run batches together hold more
    /// rows than 32-bit run ends index.
    pub fn append(&mut self, other: &mut ColBatch) {
        assert_eq!(
            self.arity(),
            other.arity(),
            "cannot append mismatched arity"
        );
        let held = self.len();
        if let (Some(ends), Some(more)) = (&mut self.run_ends, &mut other.run_ends) {
            let shift = |e: u32| u32::try_from(held + e as usize).expect("32-bit rows");
            ends.extend(more.drain(..).map(shift));
        } else {
            self.flatten();
            other.flatten();
        }
        for (dst, src) in self.cols.iter_mut().zip(other.cols.iter_mut()) {
            dst.append(src);
        }
    }

    /// Appends run `run` of `from` (row `run`, if `from` is dense) to this
    /// run batch as one run: its prefix values once, its newest values, its
    /// end.
    ///
    /// # Panics
    /// Panics if this batch has no runs, if arities differ, or if the rows
    /// outgrow 32-bit run ends.
    pub fn push_run(&mut self, from: &ColBatch, run: usize) {
        assert_eq!(self.arity(), from.arity(), "cannot append mismatched arity");
        let rows = from.run_rows(run);
        let ends = self
            .run_ends
            .as_mut()
            .expect("runs are pushed onto a run batch");
        let (newest, prefix) = self.cols.split_last_mut().expect("arity > 0");
        for (col, source) in prefix.iter_mut().zip(&from.cols) {
            col.push(source[run]);
        }
        newest.extend_from_slice(&from.cols[from.cols.len() - 1][rows]);
        ends.push(u32::try_from(newest.len()).expect("32-bit rows"));
    }

    /// This batch with run structure: itself if it has runs, otherwise the
    /// same columns with every row a run of one (one run end per row more).
    pub fn into_runs(mut self) -> ColBatch {
        if self.run_ends.is_none() {
            let rows = u32::try_from(self.len()).expect("32-bit rows");
            self.run_ends = Some((1..=rows).collect());
        }
        self
    }

    /// The columns and the run ends, taken apart: what
    /// [`ColBatch::from_columns`] or [`ColBatch::from_runs`] was given.
    pub fn into_parts(self) -> (Vec<Vec<VertexId>>, Option<Vec<u32>>) {
        (self.cols, self.run_ends)
    }

    /// Splits this batch into chunks of at most `rows_per_chunk` rows,
    /// cutting at the same rows whatever the layout. A batch that already
    /// fits is handed back as-is, so the common case moves buffers instead
    /// of copying. Dense batches yield dense chunks; a run batch yields run
    /// batches — the newest column is cut every `rows_per_chunk` rows, a run
    /// straddling a cut continues as the first run of the next chunk, and
    /// empty runs are dropped.
    pub fn split_into_chunks(mut self, rows_per_chunk: usize) -> Vec<ColBatch> {
        assert!(rows_per_chunk > 0);
        if self.len() <= rows_per_chunk {
            return vec![self];
        }
        let Some(ends) = self.run_ends.take() else {
            let mut out: Vec<ColBatch> = (0..self.len().div_ceil(rows_per_chunk))
                .map(|_| ColBatch::with_capacity(self.arity(), rows_per_chunk))
                .collect();
            for (c, col) in self.cols.into_iter().enumerate() {
                for (k, piece) in col.chunks(rows_per_chunk).enumerate() {
                    out[k].cols[c].extend_from_slice(piece);
                }
            }
            return out;
        };
        let (newest, prefix) = self.cols.split_last().expect("arity > 0");
        let mut run = 0;
        let mut start = 0;
        let chunks = newest.chunks(rows_per_chunk).enumerate().map(|(k, piece)| {
            let from = k * rows_per_chunk;
            let to = from + piece.len();
            let mut cols: Vec<Vec<VertexId>> = vec![Vec::new(); prefix.len()];
            let mut chunk_ends = Vec::new();
            // `run` is the first run not wholly before `from`, `start` its
            // first row.
            while run < ends.len() && start < to {
                let end = ends[run] as usize;
                if end > start.max(from) {
                    for (col, source) in cols.iter_mut().zip(prefix) {
                        col.push(source[run]);
                    }
                    // At most `piece.len()`, itself below the old run end.
                    chunk_ends.push((end.min(to) - from) as u32);
                }
                if end > to {
                    break;
                }
                (run, start) = (run + 1, end);
            }
            cols.push(piece.to_vec());
            ColBatch::from_runs(cols, chunk_ends)
        });
        chunks.collect()
    }

    /// Heap bytes held by the batch: the values of every column as stored
    /// (per run or per row) plus the run ends. This is what queue accounting
    /// and the memory governor charge.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        let vals: usize = self.cols.iter().map(Vec::len).sum();
        let ends = self.run_ends.as_ref().map_or(0, Vec::len);
        ((vals + ends) * std::mem::size_of::<VertexId>()) as u64
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
        let halves = a.split_into_chunks(2);
        assert_eq!(halves.len(), 2);
        assert_eq!(halves[1].to_rows().as_flat(), &[5, 6, 7, 8]);
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
    fn col_batch_push_and_append() {
        let mut a = ColBatch::new(2);
        a.push_row(&[1, 2]);
        a.push_row(&[3, 4]);
        let mut b = ColBatch::from_columns(vec![vec![5, 7], vec![6, 8]]);
        a.append(&mut b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.column(0), &[1, 3, 5, 7]);
        assert_eq!(a.column(1), &[2, 4, 6, 8]);
        assert!(b.is_empty());
        let mut row = Vec::new();
        a.read_row(2, &mut row);
        assert_eq!(row, vec![5, 6]);
    }

    #[test]
    fn col_batch_split_into_chunks_is_dense_and_total() {
        let cols = ColBatch::from_rows(&RowBatch::from_flat(2, (0..20).collect()));
        let chunks = cols.split_into_chunks(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[3].len(), 1);
        assert!(chunks.iter().all(|c| c.run_ends().is_none()));
        let first: Vec<u32> = chunks.iter().flat_map(|c| c.column(0).to_vec()).collect();
        assert_eq!(first, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
        // A batch that fits in one chunk is returned whole.
        let small = ColBatch::from_columns(vec![vec![1, 2]]);
        let same = small.clone().split_into_chunks(10);
        assert_eq!(same, vec![small]);
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

    /// `(a, b)` prefixes 10·r, 10·r + 1 over runs of the given lengths, the
    /// newest column counting rows.
    fn run_batch(lens: &[u32]) -> ColBatch {
        let runs = lens.len() as u32;
        let ends: Vec<u32> = lens
            .iter()
            .scan(0, |end, n| {
                *end += n;
                Some(*end)
            })
            .collect();
        let rows = ends.last().copied().unwrap_or(0);
        ColBatch::from_runs(
            vec![
                (0..runs).map(|r| 10 * r).collect(),
                (0..runs).map(|r| 10 * r + 1).collect(),
                (1000..1000 + rows).collect(),
            ],
            ends,
        )
    }

    /// The row-at-a-time reference a run batch must flatten to.
    fn reference_rows(lens: &[u32]) -> RowBatch {
        let mut rows = RowBatch::new(3);
        let mut next = 1000;
        for (r, &n) in lens.iter().enumerate() {
            for _ in 0..n {
                rows.push_row(&[10 * r as u32, 10 * r as u32 + 1, next]);
                next += 1;
            }
        }
        rows
    }

    #[test]
    fn a_run_batch_answers_like_its_rows() {
        let lens = [2, 0, 3, 1, 0];
        let runs = run_batch(&lens);
        let rows = reference_rows(&lens);
        assert_eq!((runs.len(), runs.arity(), runs.runs()), (6, 3, 5));
        assert_eq!(runs.run_ends(), Some(&[2, 2, 5, 6, 6][..]));
        assert_eq!(runs.run_rows(0), 0..2);
        assert_eq!(runs.run_rows(1), 2..2);
        assert_eq!(runs.run_rows(2), 2..5);
        // 5 runs × (2 prefix values + 1 end) + 6 rows, 4 bytes each.
        assert_eq!(runs.byte_size(), (5 * 3 + 6) * 4);
        assert_eq!(runs.to_rows(), rows);
        assert_eq!(runs.flattened().run_ends(), None);
        assert_eq!(*runs.flattened(), ColBatch::from_rows(&rows));
        // A dense batch is borrowed, not copied; its runs are its rows.
        let dense = ColBatch::from_rows(&rows);
        assert!(matches!(dense.flattened(), Cow::Borrowed(_)));
        assert_eq!((dense.runs(), dense.run_rows(4)), (6, 4..5));
        // Appending to a dense batch makes both sides dense.
        let mut all = ColBatch::new(3);
        all.append(&mut runs.clone());
        all.append(&mut runs.clone());
        assert_eq!(all.len(), 12);
        assert_eq!(all.column(0)[6..], [0, 0, 20, 20, 20, 30]);
        // Two run batches concatenate as runs, the second's ends shifted.
        let mut twice = runs.clone();
        let mut more = runs.clone();
        twice.append(&mut more);
        assert_eq!(
            twice.run_ends(),
            Some(&[2, 2, 5, 6, 6, 8, 8, 11, 12, 12][..])
        );
        assert_eq!(
            (twice.byte_size(), more.byte_size()),
            (2 * runs.byte_size(), 0)
        );
        assert_eq!(more.run_ends(), Some(&[][..]));
        assert_eq!(twice.to_rows(), all.to_rows());
        // A dense batch as runs: one run per row, the same rows.
        let units = dense.clone().into_runs();
        assert_eq!(units.run_ends(), Some(&[1, 2, 3, 4, 5, 6][..]));
        assert_eq!(units.to_rows(), rows);
        assert_eq!(units.byte_size(), dense.byte_size() + 6 * 4);
        assert_eq!(runs.clone().into_runs(), runs);
        // Runs pushed one by one keep their prefix once; a dense row is a
        // run of one.
        let mut pushed = ColBatch::new(3).into_runs();
        for r in [2, 0, 1] {
            pushed.push_run(&runs, r);
        }
        pushed.push_run(&dense, 4);
        assert_eq!(pushed.run_ends(), Some(&[3, 5, 5, 6][..]));
        assert_eq!(pushed.column(0), &[20, 0, 10, 20]);
        assert_eq!(pushed.column(2), &[1002, 1003, 1004, 1000, 1001, 1004]);
    }

    #[test]
    #[should_panic(expected = "dense batches only")]
    fn read_row_refuses_a_run_batch() {
        run_batch(&[2, 1]).read_row(0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "one value per run")]
    fn from_runs_checks_the_prefix_columns() {
        ColBatch::from_runs(vec![vec![1, 2], vec![3, 4, 5]], vec![3]);
    }

    #[test]
    #[should_panic(expected = "newest column's length")]
    fn from_runs_checks_the_last_end() {
        ColBatch::from_runs(vec![vec![1], vec![3, 4, 5]], vec![2]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Run lengths with empty runs anywhere (the tail included) and the
        /// occasional run longer than several chunks.
        fn arb_lens() -> impl Strategy<Value = Vec<u32>> {
            let len = prop_oneof![Just(0u32), Just(0u32), 1u32..6, 1u32..6, 20u32..60];
            proptest::collection::vec(len, 0..12)
        }

        fn held_bytes(b: &ColBatch) -> u64 {
            let values: usize = (0..b.arity()).map(|c| b.column(c).len()).sum();
            let ends = b.run_ends().map_or(0, <[u32]>::len);
            ((values + ends) * 4) as u64
        }

        proptest! {
            #[test]
            fn flatten_equals_the_row_at_a_time_reference(lens in arb_lens()) {
                let runs = run_batch(&lens);
                let rows = reference_rows(&lens);
                prop_assert_eq!(runs.len(), rows.len());
                prop_assert_eq!(runs.byte_size(), held_bytes(&runs));
                let mut flat = runs.clone();
                flat.flatten();
                prop_assert_eq!(flat.run_ends(), None);
                prop_assert_eq!(flat.byte_size(), held_bytes(&flat));
                prop_assert_eq!(&flat, &ColBatch::from_rows(&rows));
                prop_assert_eq!(runs.to_rows(), rows);
            }

            /// Cuts at, inside and exactly on run boundaries: the chunks
            /// concatenate to the source, none exceeds `n` rows, each is cut
            /// where a dense batch would be, and each is charged what it holds.
            #[test]
            fn chunks_of_a_run_batch_concatenate_to_it(lens in arb_lens(), n in 1usize..25) {
                let runs = run_batch(&lens);
                let rows = reference_rows(&lens);
                let dense_chunks = ColBatch::from_rows(&rows).split_into_chunks(n);
                let chunks = runs.clone().split_into_chunks(n);
                prop_assert_eq!(chunks.len(), dense_chunks.len());
                let mut all = ColBatch::new(3);
                let mut as_runs = ColBatch::new(3).into_runs();
                for (chunk, dense) in chunks.iter().zip(&dense_chunks) {
                    // Appended as runs, chunks keep their layout and charge.
                    let (held, chunk_runs) = (as_runs.byte_size(), chunk.clone().into_runs());
                    as_runs.append(&mut chunk_runs.clone());
                    prop_assert_eq!(as_runs.byte_size(), held + chunk_runs.byte_size());
                    prop_assert!(chunk.len() <= n);
                    prop_assert_eq!(chunk.byte_size(), held_bytes(chunk));
                    prop_assert_eq!(chunk.to_rows(), dense.to_rows());
                    if chunks.len() > 1 {
                        // Copied chunks keep the run shape and no empty runs.
                        let ends = chunk.run_ends().expect("a run batch chunks into runs");
                        prop_assert!(ends.first().is_none_or(|&e| e > 0));
                        prop_assert!(ends.windows(2).all(|w| w[0] < w[1]));
                    }
                    all.append(&mut chunk.clone());
                }
                prop_assert_eq!(all.to_rows(), rows.clone());
                prop_assert_eq!(as_runs.to_rows(), rows);
                // A run cut by chunk boundaries is stored once per chunk it
                // touches, never once per row.
                let runs_held: usize = chunks.iter().map(|c| c.runs()).sum();
                let nonempty = lens.iter().filter(|&&l| l > 0).count();
                prop_assert!(chunks.len() == 1 || runs_held < nonempty + chunks.len());
            }
        }
    }
}
