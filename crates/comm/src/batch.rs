//! Fixed-arity batches of partial matches.
//!
//! Every operator in HUGE processes data in *batches* (§4.2): a batch of
//! partial matches is the minimum scheduling and communication unit. A
//! partial match is a compact array of data-vertex ids (one per bound query
//! vertex).
//!
//! [`ColBatch`] is the one currency, between operators and on the wire: one
//! `Vec<u32>` per bound query vertex, and one layout. Its rows are grouped
//! into **runs**: an extend's output is `(input row × that row's
//! candidates)`, so every column but the newest is constant over the
//! candidates of one input row. Those columns hold one value per run, the
//! newest column one value per row, and a run holds any number of rows.
//! Every consumer walks a batch by `(run, row)` — [`ColBatch::runs`],
//! [`ColBatch::run_rows`], [`ColBatch::value`] — and appends with
//! [`ColBatch::push_run`] (or, a column at a time, [`ColBatch::push_runs`] /
//! [`ColBatch::push_rows`]); re-chunking, the queues, stealing, the shuffle,
//! the join's sides, spill blocks, ships and builds all carry runs. Rows
//! leave through one walker, [`ColBatch::for_each_row`]: the collect sink,
//! [`ColBatch::to_rows`] and the baselines' row-at-a-time operators.
//!
//! Where the runs end is [`Runs`]' business alone. While every run is one
//! row it stores nothing (run `r` is row `r`), so a batch built row by row
//! — a baseline's table, the rows a shuffle sends one at a time — holds
//! exactly its values; the first run of any other length stores every end
//! from then on. [`ColBatch::byte_size`] counts what is held, so a hub row
//! that expands 200× costs the queue one candidate column, not `arity + 1`.
//!
//! [`RowBatch`] — `n` rows of arity `a` as one flat `Vec<u32>` — is what is
//! left of the row-major layout: the scan cursor still assembles `[src, dst]`
//! rows and `SCAN` regroups them once; tests use [`ColBatch::to_rows`] to
//! compare against row-at-a-time references.

use std::io::{self, Read, Write};
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

/// Where the runs of a batch end: run `r` holds rows
/// `start(r)..start(r + 1)`. Nothing is stored while every run is one row —
/// run `r` is then row `r` — and the first run of any other length stores
/// every end from then on, so two `Runs` with the same runs are equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Runs {
    /// Number of runs.
    count: usize,
    /// `ends[r]` is the (exclusive) row at which run `r` ends; `None` while
    /// every run is one row.
    ends: Option<Vec<u32>>,
}

impl Runs {
    /// Runs that end at `ends` (cumulative rows, non-decreasing).
    ///
    /// # Panics
    /// Panics if the ends decrease.
    fn from_ends(ends: Vec<u32>) -> Self {
        assert!(
            ends.windows(2).all(|w| w[0] <= w[1]),
            "run ends must not decrease"
        );
        let one_row_each = (1..=ends.len()).eq(ends.iter().map(|&end| end as usize));
        Runs {
            count: ends.len(),
            ends: (!one_row_each).then_some(ends),
        }
    }

    /// `count` runs of one row each.
    fn of_one_row(count: usize) -> Self {
        Runs { count, ends: None }
    }

    /// Number of runs.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The first row of run `r`; `start(count())` is the number of rows.
    #[inline]
    pub fn start(&self, r: usize) -> usize {
        match &self.ends {
            Some(ends) => r.checked_sub(1).map_or(0, |p| ends[p] as usize),
            None => r,
        }
    }

    /// The rows of run `r` (possibly none).
    #[inline]
    pub fn rows(&self, r: usize) -> Range<usize> {
        self.start(r)..self.start(r + 1)
    }

    /// Appends a run of `rows` rows.
    ///
    /// # Panics
    /// Panics if the rows outgrow 32-bit run ends.
    #[inline]
    pub fn push(&mut self, rows: usize) {
        let end = |held: usize| u32::try_from(held + rows).expect("32-bit rows");
        match &mut self.ends {
            None if rows == 1 => {}
            // `count` runs of one row each so far.
            None => {
                let mut ends: Vec<u32> = (1..=self.count as u32).collect();
                ends.push(end(self.count));
                self.ends = Some(ends);
            }
            Some(ends) => ends.push(end(ends.last().map_or(0, |&e| e as usize))),
        }
        self.count += 1;
    }

    /// Appends runs `runs` of `from` after these.
    fn extend(&mut self, from: &Runs, runs: Range<usize>) {
        let base = from.start(runs.start);
        match (&mut self.ends, &from.ends) {
            (None, None) => self.count += runs.len(),
            (Some(ends), Some(more)) => {
                let held = ends.last().map_or(0, |&end| end as usize);
                let shift =
                    |&end: &u32| u32::try_from(held + end as usize - base).expect("32-bit rows");
                ends.extend(more[runs.clone()].iter().map(shift));
                self.count += runs.len();
            }
            _ => runs.for_each(|run| self.push(from.rows(run).len())),
        }
    }

    /// Heap bytes of the stored ends.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        (self.ends.as_ref().map_or(0, Vec::len) * std::mem::size_of::<u32>()) as u64
    }
}

/// A batch of fixed-arity partial matches in columnar layout.
///
/// Column `c` holds the binding of query vertex `c`: every column but the
/// newest one value per run, the newest one value per row. See the module
/// docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColBatch {
    cols: Vec<Vec<VertexId>>,
    runs: Runs,
}

/// Bytes of one value in a block.
const VALUE_BYTES: usize = std::mem::size_of::<VertexId>();

/// Values a block moves through its byte buffer at a time (64 KiB): the one
/// fixed buffer a write or a read holds beside the values themselves.
const BLOCK_PIECE: usize = 16 * 1024;

impl ColBatch {
    /// Creates an empty batch of the given arity.
    pub fn new(arity: usize) -> Self {
        ColBatch::from_columns(vec![Vec::new(); arity])
    }

    /// Builds a batch of one-row runs from pre-assembled columns of equal
    /// length.
    pub fn from_columns(cols: Vec<Vec<VertexId>>) -> Self {
        assert!(!cols.is_empty(), "rows must bind at least one query vertex");
        assert!(
            cols.windows(2).all(|w| w[0].len() == w[1].len()),
            "columns must have equal length"
        );
        let runs = Runs::of_one_row(cols[0].len());
        ColBatch { cols, runs }
    }

    /// Builds a batch whose run `r` ends at (exclusive) row `run_ends[r]`:
    /// every column but the last holds one value per run, the last one
    /// value per row.
    ///
    /// # Panics
    /// Panics if the run ends decrease, do not end at the newest column's
    /// length, or a prefix column does not have one value per run.
    pub fn from_runs(cols: Vec<Vec<VertexId>>, run_ends: Vec<u32>) -> Self {
        ColBatch::from_parts(cols, Runs::from_ends(run_ends))
    }

    /// Builds a batch from what [`ColBatch::into_parts`] took apart.
    ///
    /// # Panics
    /// As [`ColBatch::from_runs`].
    pub fn from_parts(cols: Vec<Vec<VertexId>>, runs: Runs) -> Self {
        let (newest, prefix) = cols.split_last().expect("rows bind a query vertex");
        assert!(
            prefix.iter().all(|c| c.len() == runs.count),
            "prefix columns must hold one value per run"
        );
        assert_eq!(
            runs.start(runs.count),
            newest.len(),
            "the last run must end at the newest column's length"
        );
        ColBatch { cols, runs }
    }

    /// Transposes a row-major batch into columns, every row a run.
    pub fn from_rows(rows: &RowBatch) -> Self {
        let mut batch = ColBatch::new(rows.arity());
        rows.rows().for_each(|row| batch.push_row(row));
        batch
    }

    /// Transposes into a row-major batch.
    pub fn to_rows(&self) -> RowBatch {
        let mut out = RowBatch::with_capacity(self.arity(), self.len());
        self.for_each_row(|row| out.push_row(row));
        out
    }

    /// Number of columns (bound query vertices).
    #[inline]
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows: the newest column's length.
    #[inline]
    pub fn len(&self) -> usize {
        self.cols[self.cols.len() - 1].len()
    }

    /// `true` when no rows remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` with every row in order, its prefix values read once per
    /// run: the one place rows leave a batch.
    pub fn for_each_row(&self, mut f: impl FnMut(&[VertexId])) {
        let (newest, prefix) = self.cols.split_last().expect("arity > 0");
        let mut row = vec![0; self.arity()];
        for run in 0..self.runs() {
            for (value, column) in row.iter_mut().zip(prefix) {
                *value = column[run];
            }
            for &v in &newest[self.run_rows(run)] {
                row[prefix.len()] = v;
                f(&row);
            }
        }
    }

    /// Appends one row, as a run of its own.
    #[inline]
    pub fn push_row(&mut self, row: &[VertexId]) {
        debug_assert_eq!(row.len(), self.arity());
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.runs.push(1);
    }

    /// The data of column `c`: one value per run, or — for the newest
    /// column — one value per row.
    #[inline]
    pub fn column(&self, c: usize) -> &[VertexId] {
        &self.cols[c]
    }

    /// Column `c`'s value in row `row` of run `run`: a prefix column is read
    /// at the run, the newest column at the row.
    #[inline]
    pub fn value(&self, c: usize, run: usize, row: usize) -> VertexId {
        self.cols[c][if c + 1 == self.cols.len() { row } else { run }]
    }

    /// Number of runs.
    #[inline]
    pub fn runs(&self) -> usize {
        self.runs.count
    }

    /// The rows of run `r` (possibly none).
    #[inline]
    pub fn run_rows(&self, r: usize) -> Range<usize> {
        self.runs.rows(r)
    }

    /// Moves all rows of `other` into `self`, run by run (`other` is left
    /// empty). A batch without runs takes `other`'s buffers as they are.
    ///
    /// # Panics
    /// Panics if arities differ, or if the rows outgrow 32-bit run ends.
    pub fn append(&mut self, other: &mut ColBatch) {
        let other = std::mem::replace(other, ColBatch::new(other.arity()));
        match self.runs() {
            0 if self.arity() == other.arity() => *self = other,
            _ => self.extend_runs(&other, 0..other.runs()),
        }
    }

    /// Appends runs `runs` of `from` as they are: each column's values of
    /// those runs as one slice.
    ///
    /// # Panics
    /// Panics if arities differ, or if the rows outgrow 32-bit run ends.
    fn extend_runs(&mut self, from: &ColBatch, runs: Range<usize>) {
        assert_eq!(self.arity(), from.arity(), "cannot append mismatched arity");
        let rows = from.runs.start(runs.start)..from.runs.start(runs.end);
        let (newest, prefix) = self.cols.split_last_mut().expect("arity > 0");
        for (col, source) in prefix.iter_mut().zip(&from.cols) {
            col.extend_from_slice(&source[runs.clone()]);
        }
        newest.extend_from_slice(&from.cols[from.cols.len() - 1][rows]);
        self.runs.extend(&from.runs, runs);
    }

    /// Appends `rows` of run `run` of `from` as one run: its prefix values
    /// once, the newest values of those rows.
    ///
    /// # Panics
    /// Panics if arities differ, or if the rows outgrow 32-bit run ends;
    /// (debug) if `rows` is not within the run.
    pub fn push_run(&mut self, from: &ColBatch, run: usize, rows: Range<usize>) {
        assert_eq!(self.arity(), from.arity(), "cannot append mismatched arity");
        debug_assert!({
            let within = from.run_rows(run);
            within.start <= rows.start && rows.end <= within.end
        });
        let (newest, prefix) = self.cols.split_last_mut().expect("arity > 0");
        for (col, source) in prefix.iter_mut().zip(&from.cols) {
            col.push(source[run]);
        }
        self.runs.push(rows.len());
        newest.extend_from_slice(&from.cols[from.cols.len() - 1][rows]);
    }

    /// Appends runs `runs` of `from` whole, in order, one column at a time.
    ///
    /// # Panics
    /// Panics if arities differ, or if the rows outgrow 32-bit run ends.
    pub fn push_runs(&mut self, from: &ColBatch, runs: &[u32]) {
        assert_eq!(self.arity(), from.arity(), "cannot append mismatched arity");
        let (newest, prefix) = self.cols.split_last_mut().expect("arity > 0");
        let (source, sources) = from.cols.split_last().expect("arity > 0");
        for (col, source) in prefix.iter_mut().zip(sources) {
            col.extend(runs.iter().map(|&run| source[run as usize]));
        }
        match from.runs.ends {
            // Run `r` is row `r`.
            None => newest.extend(runs.iter().map(|&run| source[run as usize])),
            Some(_) => (runs.iter().map(|&run| from.run_rows(run as usize)))
                .for_each(|rows| newest.extend_from_slice(&source[rows])),
        }
        for &run in runs {
            self.runs.push(from.run_rows(run as usize).len());
        }
    }

    /// Appends row `row` of run `run` of `from`, for each `(run, row)` of
    /// `rows`, as a run of its own, in order, one column at a time.
    ///
    /// # Panics
    /// Panics if arities differ, or if the rows outgrow 32-bit run ends.
    pub fn push_rows(&mut self, from: &ColBatch, rows: &[(u32, u32)]) {
        assert_eq!(self.arity(), from.arity(), "cannot append mismatched arity");
        let (newest, prefix) = self.cols.split_last_mut().expect("arity > 0");
        let (source, sources) = from.cols.split_last().expect("arity > 0");
        for (col, source) in prefix.iter_mut().zip(sources) {
            col.extend(rows.iter().map(|&(run, _)| source[run as usize]));
        }
        newest.extend(rows.iter().map(|&(_, row)| source[row as usize]));
        let ones = Runs::of_one_row(rows.len());
        self.runs.extend(&ones, 0..rows.len());
    }

    /// The columns and the runs, taken apart.
    pub fn into_parts(self) -> (Vec<Vec<VertexId>>, Runs) {
        (self.cols, self.runs)
    }

    /// Splits this batch into chunks of at most `rows_per_chunk` rows, each
    /// but the last exactly that long. A batch that already fits is handed
    /// back as-is, so the common case moves buffers instead of copying. The
    /// runs that lie wholly inside a chunk are copied as slices; a run
    /// straddling a cut continues as the first run of the next chunk, and
    /// empty runs are dropped.
    pub fn split_into_chunks(self, rows_per_chunk: usize) -> Vec<ColBatch> {
        assert!(rows_per_chunk > 0);
        if self.len() <= rows_per_chunk {
            return vec![self];
        }
        let fresh = || ColBatch::new(self.arity());
        let mut chunks = Vec::with_capacity(self.len().div_ceil(rows_per_chunk));
        let mut chunk = fresh();
        // Runs `first..run` fit in `chunk` whole and are not copied yet.
        let mut first = 0;
        for run in 0..self.runs() {
            let mut rows = self.run_rows(run);
            let held = chunk.len() + rows.start - self.runs.start(first);
            if !rows.is_empty() && held + rows.len() <= rows_per_chunk {
                continue;
            }
            chunk.extend_runs(&self, first..run);
            first = run + 1;
            while !rows.is_empty() {
                if chunk.len() == rows_per_chunk {
                    chunks.push(std::mem::replace(&mut chunk, fresh()));
                }
                let end = rows.end.min(rows.start + rows_per_chunk - chunk.len());
                chunk.push_run(&self, run, rows.start..end);
                rows.start = end;
            }
        }
        chunk.extend_runs(&self, first..self.runs());
        chunks.push(chunk);
        chunks
    }

    /// Heap bytes held by the batch: the values of every column as stored
    /// (per run or per row) plus the stored run ends. This is what queue
    /// accounting and the memory governor charge.
    #[inline]
    pub fn byte_size(&self) -> u64 {
        let vals: usize = self.cols.iter().map(Vec::len).sum();
        (vals * VALUE_BYTES) as u64 + self.runs.byte_size()
    }

    /// Writes the batch to `w` as one block: a header of two little-endian
    /// `u64`s — the rows, and the run ends stored (0 while every run is one
    /// row) — then the stored ends, then the columns one after another as
    /// held (every column but the newest one value per run), every value a
    /// little-endian `u32`. [`ColBatch::read_block`] reads it back.
    pub fn write_block(&self, w: &mut impl Write) -> io::Result<()> {
        let ends = self.runs.ends.as_deref().unwrap_or_default();
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        w.write_all(&(ends.len() as u64).to_le_bytes())?;
        let mut piece = vec![0u8; (self.byte_size() as usize).min(BLOCK_PIECE * VALUE_BYTES)];
        let columns = self.cols.iter().map(Vec::as_slice);
        for values in std::iter::once(ends)
            .chain(columns)
            .flat_map(|v| v.chunks(BLOCK_PIECE))
        {
            let piece = &mut piece[..values.len() * VALUE_BYTES];
            for (bytes, value) in piece.chunks_exact_mut(VALUE_BYTES).zip(values) {
                bytes.copy_from_slice(&value.to_le_bytes());
            }
            w.write_all(piece)?;
        }
        Ok(())
    }

    /// Reads one block [`ColBatch::write_block`] wrote, of `arity` columns,
    /// from `r`, which holds `left` bytes more; `left` is reduced by the
    /// block. Nothing is trusted: the header is checked against `left`
    /// before anything is reserved for the block, and stored ends must rise
    /// to exactly the block's rows, so a truncated or garbled block is an
    /// `InvalidData` error instead of a silently shifted column.
    pub fn read_block(r: &mut impl Read, arity: usize, left: &mut u64) -> io::Result<ColBatch> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what);
        let mut header = [0u8; 16];
        *left = left
            .checked_sub(header.len() as u64)
            .ok_or_else(|| invalid("ends inside a block header"))?;
        r.read_exact(&mut header)?;
        let (rows, stored) = header.split_at(8);
        let [rows, stored] =
            [rows, stored].map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
        // Every column but the newest holds a value per run, and every run is
        // one row while no end is stored.
        let runs = if stored == 0 { rows } else { stored };
        let values = (runs.checked_mul(arity as u64 - 1))
            .and_then(|v| v.checked_add(rows))
            .and_then(|v| v.checked_add(stored));
        *left = values
            .and_then(|v| v.checked_mul(VALUE_BYTES as u64))
            .and_then(|block| left.checked_sub(block))
            .ok_or_else(|| invalid("ends inside a block"))?;
        let mut piece = vec![0u8; (values.unwrap_or(0) as usize).min(BLOCK_PIECE) * VALUE_BYTES];
        let mut read = |count: u64| -> io::Result<Vec<VertexId>> {
            let mut values = Vec::with_capacity(count as usize);
            let mut todo = count as usize;
            while todo > 0 {
                let piece = &mut piece[..todo.min(BLOCK_PIECE) * VALUE_BYTES];
                r.read_exact(piece)?;
                let bytes = piece.chunks_exact(VALUE_BYTES);
                values.extend(bytes.map(|b| VertexId::from_le_bytes([b[0], b[1], b[2], b[3]])));
                todo -= piece.len() / VALUE_BYTES;
            }
            Ok(values)
        };
        let ends = read(stored)?;
        let last = ends.last().map_or(rows, |&end| u64::from(end));
        if !ends.windows(2).all(|w| w[0] <= w[1]) || last != rows {
            return Err(invalid("run ends do not rise to the block's rows"));
        }
        let mut cols: Vec<_> = (1..arity).map(|_| read(runs)).collect::<io::Result<_>>()?;
        cols.push(read(rows)?);
        let runs = match stored {
            0 => Runs::of_one_row(rows as usize),
            _ => Runs::from_ends(ends),
        };
        Ok(ColBatch::from_parts(cols, runs))
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
        assert_eq!((a.runs(), a.run_rows(2)), (4, 2..3));
        assert_eq!(a.to_rows().row(2), &[5, 6]);
    }

    #[test]
    fn col_batch_split_into_chunks_is_dense_and_total() {
        // Rows that are their own runs chunk into rows that are their own
        // runs: no chunk stores a run end.
        let cols = ColBatch::from_rows(&RowBatch::from_flat(2, (0..20).collect()));
        let chunks = cols.split_into_chunks(3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 3);
        assert_eq!(chunks[3].len(), 1);
        for chunk in &chunks {
            assert_eq!(
                (chunk.runs(), chunk.runs.ends.as_ref()),
                (chunk.len(), None)
            );
            assert_eq!(chunk.byte_size(), 2 * 4 * chunk.len() as u64);
        }
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

    /// The row-at-a-time reference a run batch must walk to.
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

    /// The stored run ends, if any.
    fn stored(batch: &ColBatch) -> Option<&[u32]> {
        batch.runs.ends.as_deref()
    }

    #[test]
    fn a_run_batch_answers_like_its_rows() {
        let lens = [2, 0, 3, 1, 0];
        let runs = run_batch(&lens);
        let rows = reference_rows(&lens);
        assert_eq!((runs.len(), runs.arity(), runs.runs()), (6, 3, 5));
        assert_eq!(stored(&runs), Some(&[2, 2, 5, 6, 6][..]));
        assert_eq!(runs.run_rows(0), 0..2);
        assert_eq!(runs.run_rows(1), 2..2);
        assert_eq!(runs.run_rows(2), 2..5);
        assert_eq!((runs.value(0, 2, 3), runs.value(2, 2, 3)), (20, 1003));
        // 5 runs × (2 prefix values + 1 end) + 6 rows, 4 bytes each.
        assert_eq!(runs.byte_size(), (5 * 3 + 6) * 4);
        assert_eq!(runs.to_rows(), rows);
        // Every row its own run: no end stored, the same rows.
        let units = ColBatch::from_rows(&rows);
        assert_eq!(
            (units.runs(), units.run_rows(4), stored(&units)),
            (6, 4..5, None)
        );
        assert_eq!(units.byte_size(), 6 * 3 * 4);
        // Appending runs to rows of one row each stores every end.
        let mut all = units.clone();
        all.append(&mut runs.clone());
        assert_eq!(all.len(), 12);
        assert_eq!(all.column(0)[6..], [0, 10, 20, 30, 40]);
        assert_eq!(
            stored(&all),
            Some(&[1, 2, 3, 4, 5, 6, 8, 8, 11, 12, 12][..])
        );
        assert_eq!(
            all.byte_size(),
            units.byte_size() + runs.byte_size() + 6 * 4
        );
        // Two run batches concatenate as runs, the second's ends shifted.
        let mut twice = runs.clone();
        let mut more = runs.clone();
        twice.append(&mut more);
        assert_eq!(stored(&twice), Some(&[2, 2, 5, 6, 6, 8, 8, 11, 12, 12][..]));
        assert_eq!(
            (twice.byte_size(), more.byte_size()),
            (2 * runs.byte_size(), 0)
        );
        assert_eq!(more.runs(), 0);
        let mut rows_twice = rows.clone();
        rows_twice.append(&mut rows.clone());
        assert_eq!(twice.to_rows(), rows_twice);
        // Runs pushed one by one keep their prefix once; a slice of a run is
        // a run of its own.
        let mut pushed = ColBatch::new(3);
        for r in [2, 0, 1] {
            pushed.push_run(&runs, r, runs.run_rows(r));
        }
        pushed.push_run(&runs, 2, 3..4);
        assert_eq!(stored(&pushed), Some(&[3, 5, 5, 6][..]));
        assert_eq!(pushed.column(0), &[20, 0, 10, 20]);
        assert_eq!(pushed.column(2), &[1002, 1003, 1004, 1000, 1001, 1003]);
    }

    #[test]
    fn rows_of_one_store_no_ends_until_a_longer_run_arrives() {
        let runs = run_batch(&[2, 1, 1]);
        let mut rows = ColBatch::new(3);
        for (r, row) in [(1, 2), (2, 3), (0, 1)] {
            rows.push_run(&runs, r, row..row + 1);
        }
        assert_eq!(
            (rows.runs(), stored(&rows), rows.byte_size()),
            (3, None, 36)
        );
        rows.push_run(&runs, 0, 0..2);
        assert_eq!((rows.runs(), stored(&rows)), (4, Some(&[1, 2, 3, 5][..])));
        assert_eq!(rows.byte_size(), 4 * (4 * 2 + 5 + 4));
        // Ends that are every row's own are not stored either.
        let ones = ColBatch::from_runs(vec![vec![1, 2], vec![3, 4]], vec![1, 2]);
        assert_eq!(ones, ColBatch::from_columns(vec![vec![1, 2], vec![3, 4]]));
    }

    #[test]
    fn pushed_runs_and_rows_keep_their_order_and_prefixes() {
        let runs = run_batch(&[2, 0, 3, 1]);
        let mut whole = ColBatch::new(3);
        whole.push_runs(&runs, &[2, 0]);
        assert_eq!(stored(&whole), Some(&[3, 5][..]));
        assert_eq!(whole.column(0), &[20, 0]);
        assert_eq!(whole.column(2), &[1002, 1003, 1004, 1000, 1001]);
        let mut rows = ColBatch::new(3);
        rows.push_rows(&runs, &[(2, 4), (0, 0)]);
        assert_eq!((rows.runs(), stored(&rows)), (2, None));
        assert_eq!(rows.column(1), &[21, 1]);
        assert_eq!(rows.column(2), &[1004, 1000]);
        // From a batch whose every run is one row, whole runs are its rows.
        let ones = ColBatch::from_rows(&rows.to_rows());
        let mut back = ColBatch::new(3);
        back.push_runs(&ones, &[1, 0]);
        assert_eq!(back.to_rows().row(0), &[0, 1, 1000]);
        assert_eq!((stored(&back), back.byte_size()), (None, 24));
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

    #[test]
    fn a_block_reads_back_as_written_and_refuses_what_does_not_add_up() {
        for batch in [
            run_batch(&[2, 0, 3]),
            ColBatch::from_rows(&reference_rows(&[1; 5])),
        ] {
            let mut file = Vec::new();
            batch.write_block(&mut file).unwrap();
            batch.write_block(&mut file).unwrap();
            assert_eq!(file.len() as u64, 2 * (16 + batch.byte_size()));
            let mut left = file.len() as u64;
            let mut r = &file[..];
            for _ in 0..2 {
                assert_eq!(ColBatch::read_block(&mut r, 3, &mut left).unwrap(), batch);
            }
            assert_eq!(left, 0);
            // A block one byte short of its header's promise.
            let mut short = 16 + batch.byte_size() - 1;
            let read = ColBatch::read_block(&mut &file[..], 3, &mut short);
            assert_eq!(
                read.map(|_| ()).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        // Ends that do not rise to the block's rows.
        let mut file = Vec::new();
        run_batch(&[2, 3]).write_block(&mut file).unwrap();
        file[16..20].copy_from_slice(&9u32.to_le_bytes());
        let mut left = file.len() as u64;
        let read = ColBatch::read_block(&mut &file[..], 3, &mut left);
        assert_eq!(
            read.map(|_| ()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
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
            let ends = stored(b).map_or(0, <[u32]>::len);
            ((values + ends) * 4) as u64
        }

        proptest! {
            #[test]
            fn the_row_walker_equals_the_row_at_a_time_reference(lens in arb_lens()) {
                let runs = run_batch(&lens);
                let rows = reference_rows(&lens);
                prop_assert_eq!(runs.len(), rows.len());
                prop_assert_eq!(runs.byte_size(), held_bytes(&runs));
                let mut walked = Vec::new();
                runs.for_each_row(|row| walked.extend_from_slice(row));
                prop_assert_eq!(&walked[..], rows.as_flat());
                // Ends are stored unless every run is one row.
                let one_row_each = lens.iter().all(|&l| l == 1);
                prop_assert_eq!(stored(&runs).is_none(), one_row_each);
                prop_assert_eq!(runs.to_rows(), rows);
            }

            /// Cuts at, inside and exactly on run boundaries: the chunks
            /// concatenate to the source, none exceeds `n` rows, each is cut
            /// where its row-per-run twin's would be, and each is charged
            /// what it holds.
            #[test]
            fn chunks_of_a_run_batch_concatenate_to_it(lens in arb_lens(), n in 1usize..25) {
                let runs = run_batch(&lens);
                let rows = reference_rows(&lens);
                let twin_chunks = ColBatch::from_rows(&rows).split_into_chunks(n);
                let chunks = runs.clone().split_into_chunks(n);
                prop_assert_eq!(chunks.len(), twin_chunks.len());
                let mut all = ColBatch::new(3);
                for (chunk, twin) in chunks.iter().zip(&twin_chunks) {
                    // Appended, chunks keep their runs and are charged what
                    // they hold.
                    all.append(&mut chunk.clone());
                    prop_assert_eq!(all.byte_size(), held_bytes(&all));
                    prop_assert!(chunk.len() <= n);
                    prop_assert_eq!(chunk.byte_size(), held_bytes(chunk));
                    prop_assert_eq!(chunk.to_rows(), twin.to_rows());
                    if chunks.len() > 1 {
                        // Copied chunks keep the run shape and no empty runs.
                        prop_assert!((0..chunk.runs()).all(|r| !chunk.run_rows(r).is_empty()));
                    }
                }
                prop_assert_eq!(all.to_rows(), rows);
                // A run cut by chunk boundaries is stored once per chunk it
                // touches, never once per row.
                let runs_held: usize = chunks.iter().map(|c| c.runs()).sum();
                let nonempty = lens.iter().filter(|&&l| l > 0).count();
                prop_assert!(chunks.len() == 1 || runs_held < nonempty + chunks.len());
            }
        }
    }
}
