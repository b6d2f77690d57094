//! Matrix Market (`.mtx`) I/O for symmetric real coordinate matrices.
//!
//! Enough of the format to exchange test systems with other tools:
//! `matrix coordinate real {general|symmetric}` headers, `%` comments,
//! 1-based indices.
//!
//! The readers are total: whatever the bytes, they return a matrix or an
//! [`Error::Parse`] naming the 1-based line — never a panic, and never an
//! allocation sized by a number the file merely *claims* (see
//! `UNBACKED`).
//!
//! They parse in parallel and give what a line-by-line parse gives. The
//! entry lines are taken from the stream in blocks of `BLOCK` bytes cut
//! at a line end, so a file's text is never held whole beside its values.
//! Each block is cut into line ranges, and two fan-outs run over them:
//! the first counts each range's values, which places every range's
//! values in the one output the caller sized; the second parses the
//! ranges into their places. So the values are in file order, and the
//! error reported is the first in file order, whichever range met its
//! own first. The helper threads write into that output and allocate
//! nothing of it: memory a helper frees stays in its own allocator arena,
//! where the process's resident size still counts it.

use crate::coo::Coo;
use crate::csr::{check_n_cols, Csr};
use crate::error::{Error, Result};
use std::io::{BufRead, ErrorKind, Write};
use std::sync::{Mutex, PoisonError};

/// What [`read_matrix`] will allocate on the size line's word alone,
/// before the file's own entry lines have paid for more: the up-front
/// triplet reservation is capped at this many, and a dimension may exceed
/// the declared entry count by at most this much (the CSR row pointer is
/// `O(rows)`, and no entry line backs an empty row).
const UNBACKED: usize = 1 << 20;

/// Bytes the readers take from the stream at a time (more only when a
/// single line is longer): two blocks for a 32³ Laplacian's 5 MB file, and
/// a bounded buffer however large the file.
const BLOCK: usize = 1 << 22;

/// Line ranges per block for each thread of the fan-out: enough that a
/// thread slowed by a busy neighbour holds up little of the block.
const RANGES_PER_THREAD: usize = 4;

/// How a reader cuts its input: bytes per block, and line ranges per
/// block (`0`: [`RANGES_PER_THREAD`] per thread of the fan-out). The
/// readers use [`Chunking::DEFAULT`]; the tests vary both.
#[derive(Debug, Clone, Copy)]
struct Chunking {
    block: usize,
    ranges: usize,
}

impl Chunking {
    const DEFAULT: Self = Self {
        block: BLOCK,
        ranges: 0,
    };
}

/// What `BufRead::lines` reports for a line that is not UTF-8.
const NOT_UTF8: &str = "stream did not contain valid UTF-8";

/// `Error::Parse` naming the 1-based input line.
fn at(line: usize, msg: impl std::fmt::Display) -> Error {
    Error::Parse(format!("line {line}: {msg}"))
}

/// The stream's lines with their 1-based numbers; I/O and UTF-8 failures
/// name their line.
fn numbered<R: BufRead>(reader: R) -> impl Iterator<Item = Result<(usize, String)>> {
    reader.lines().enumerate().map(|(i, line)| match line {
        Ok(line) => Ok((i + 1, line)),
        Err(e) => Err(at(i + 1, e)),
    })
}

/// Parse a 1-based index token into a 0-based index below `bound`.
fn index(tok: &str, bound: usize, what: &str, line: usize) -> Result<usize> {
    match tok.parse::<usize>() {
        Ok(i) if (1..=bound).contains(&i) => Ok(i - 1),
        Ok(i) => Err(at(line, format!("{what} index {i} outside 1..={bound}"))),
        Err(_) => Err(at(line, format!("bad {what} index: {tok}"))),
    }
}

/// Parse a finite number token (`nan`, `inf` and overflowing literals all
/// parse as `f64`, and none of them is a matrix or vector entry).
fn finite(tok: &str, line: usize) -> Result<f64> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        Ok(_) => Err(at(line, format!("non-finite value: {tok}"))),
        Err(_) => Err(at(line, format!("bad number: {tok}"))),
    }
}

/// Feed `parse` the rest of the stream in blocks of whole lines (the last
/// may lack its `\n` at the end of the stream), each with the 1-based
/// number of its first line; `parse` returns how many lines the block
/// held. `last` is the number of the line read before; the return value
/// is the number of the last line read.
fn for_each_block<R: BufRead>(
    reader: &mut R,
    block: usize,
    mut last: usize,
    mut parse: impl FnMut(&[u8], usize) -> Result<usize>,
) -> Result<usize> {
    let mut buf = vec![0u8; block.max(1)];
    let mut filled = 0;
    loop {
        // `None`: the buffer is full; `Some(None)`: end of stream;
        // `Some(Some(e))`: an I/O error.
        let mut end = None;
        while filled < buf.len() {
            match reader.read(&mut buf[filled..]) {
                Ok(0) => {
                    end = Some(None);
                    break;
                }
                Ok(k) => filled += k,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    end = Some(Some(e));
                    break;
                }
            }
        }
        let whole = buf[..filled]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let cut = if matches!(end, Some(None)) {
            filled
        } else {
            whole
        };
        if cut == 0 && end.is_none() {
            // One line fills the buffer: make room for the rest of it.
            let len = buf.len();
            buf.resize(2 * len, 0);
            continue;
        }
        last += parse(&buf[..cut], last + 1)?;
        match end {
            Some(None) => return Ok(last),
            // Lines are numbered as `BufRead::lines` numbers them: the
            // error belongs to the line being read when it struck.
            Some(Some(e)) => return Err(at(last + 1, e)),
            None => {
                buf.copy_within(cut..filled, 0);
                filled -= cut;
            }
        }
    }
}

/// Cut `text` (whole lines) into at most `ranges` pieces of whole lines.
fn line_ranges(text: &[u8], ranges: usize) -> Vec<&[u8]> {
    let mut out = Vec::with_capacity(ranges);
    let mut rest = text;
    for left in (1..=ranges.max(1)).rev() {
        if rest.is_empty() {
            break;
        }
        let from = rest.len() / left;
        let cut = rest[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| from + i + 1);
        let (piece, tail) = rest.split_at(if left == 1 { rest.len() } else { cut });
        out.push(piece);
        rest = tail;
    }
    out
}

/// The first pass over one line range.
#[derive(Debug, Default)]
struct Scan {
    /// Lines in the range.
    lines: usize,
    /// Bytes of whole UTF-8 lines at the range's start: all of it unless
    /// `bad_line` is set.
    valid: usize,
    /// 0-based index in the range of its first line that is not UTF-8.
    bad_line: Option<usize>,
    /// Values on the lines before `bad_line`.
    values: usize,
    /// 0-based indices of the lines before `bad_line` that hold no entry.
    skipped: Vec<usize>,
}

/// Count `range`'s lines and, on its UTF-8 lines, their values: `count`
/// gives a line's number of values, or `None` for a line that can hold
/// none (a matrix file's comments and blank lines).
fn scan(range: &[u8], count: &impl Fn(&str) -> Option<usize>) -> Scan {
    let (text, bad) = match std::str::from_utf8(range) {
        Ok(text) => (text, None),
        Err(e) => {
            let start = range[..e.valid_up_to()]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            // Up to a line end is valid: `\n` is a whole character.
            let text = std::str::from_utf8(&range[..start]).unwrap_or_default();
            (text, Some(start))
        }
    };
    let mut out = Scan {
        valid: text.len(),
        ..Scan::default()
    };
    for (i, line) in text.lines().enumerate() {
        out.lines += 1;
        match count(line) {
            Some(c) => out.values += c,
            None => out.skipped.push(i),
        }
    }
    if let Some(start) = bad {
        out.bad_line = Some(out.lines);
        // The bad line and those after it still count for numbering.
        let rest = &range[start..];
        out.lines +=
            rest.iter().filter(|&&b| b == b'\n').count() + usize::from(rest.last() != Some(&b'\n'));
    }
    out
}

/// Parse one block of whole lines: count the values of each line range,
/// place them after `out`'s (at most `quota` more in all), then parse the
/// ranges into their places. `fill` parses a range's UTF-8 lines, given
/// the number of its first line, into exactly its places or fails; a
/// range given fewer places than it counted values holds the entry one
/// past the quota. Comment and blank lines go to `skipped` by number.
/// Returns the number of lines in `text`.
#[allow(clippy::too_many_arguments)]
fn parse_block<T: Clone + Default + Send>(
    pool: &rayon::ThreadPool,
    ranges: usize,
    text: &[u8],
    first_line: usize,
    quota: usize,
    out: &mut Vec<T>,
    skipped: &mut Vec<usize>,
    count: impl Fn(&str) -> Option<usize> + Sync,
    fill: impl Fn(&str, usize, &mut [T]) -> Result<()> + Sync,
) -> Result<usize> {
    let ranges = if ranges == 0 {
        RANGES_PER_THREAD * (pool.current_num_threads() + 1)
    } else {
        ranges
    };
    let pieces = line_ranges(text, ranges);
    let scans = pool.map_index(pieces.len(), |r| scan(pieces[r], &count));
    let (mut line, mut values) = (first_line, 0usize);
    let mut places = Vec::with_capacity(scans.len());
    for s in &scans {
        let len = s.values.min(quota.saturating_sub(values));
        places.push((line, len));
        skipped.extend(s.skipped.iter().map(|&i| line + i));
        line += s.lines;
        values = values.saturating_add(s.values);
    }
    let start = out.len();
    let placed: usize = places.iter().map(|&(_, len)| len).sum();
    out.resize(start + placed, T::default());
    let mut tail = &mut out[start..];
    let slots: Vec<Mutex<&mut [T]>> = places
        .iter()
        .map(|&(_, len)| {
            let (slot, rest) = std::mem::take(&mut tail).split_at_mut(len);
            tail = rest;
            Mutex::new(slot)
        })
        .collect();
    let parsed = pool.map_index(pieces.len(), |r| {
        let mut slot = slots[r].lock().unwrap_or_else(PoisonError::into_inner);
        let (s, first) = (&scans[r], places[r].0);
        let text = std::str::from_utf8(&pieces[r][..s.valid]).unwrap_or_default();
        fill(text, first, &mut slot)?;
        match s.bad_line {
            Some(i) => Err(at(first + i, NOT_UTF8)),
            None => Ok(()),
        }
    });
    parsed.into_iter().collect::<Result<()>>()?;
    Ok(line - first_line)
}

/// Parse a Matrix Market stream into CSR.
///
/// Symmetric files are expanded to both triangles; they must be square
/// and list the lower triangle only. Every coordinate may appear once.
///
/// The entry lines are parsed in parallel, block by block and range by
/// range (see the module documentation); the matrix, and the error with
/// its line, are those of a line-by-line parse.
///
/// # Errors
/// [`Error::Parse`] naming the offending 1-based line for anything else:
/// malformed header or size line, more columns than a [`Csr`] holds
/// ([`crate::csr::MAX_COLS`]), dimensions the declared entry count cannot
/// back, out-of-range or 0-based indices, non-finite values,
/// trailing tokens, an entry above the diagonal of a symmetric file,
/// duplicate coordinates, more or fewer entries than declared, I/O and
/// UTF-8 failures. When a file has several faults, the one on the
/// earliest line is reported.
pub fn read_matrix<R: BufRead>(reader: R) -> Result<Csr> {
    read_matrix_in(reader, Chunking::DEFAULT)
}

fn read_matrix_in<R: BufRead>(mut reader: R, chunking: Chunking) -> Result<Csr> {
    let mut lines = numbered(&mut reader);
    let (_, header) = lines
        .next()
        .ok_or_else(|| at(1, "empty Matrix Market stream"))??;
    let h: Vec<String> = header.split_whitespace().map(str::to_lowercase).collect();
    if h.len() != 5 || h[0] != "%%matrixmarket" || h[1] != "matrix" {
        return Err(at(1, format!("bad header: {header}")));
    }
    if h[2] != "coordinate" || h[3] != "real" {
        return Err(at(1, format!("only `coordinate real` supported: {header}")));
    }
    let symmetric = match h[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(at(1, format!("unsupported symmetry kind: {other}"))),
    };

    let mut no = 1; // the line last read
    let size_line = loop {
        let (n, line) = lines.next().ok_or_else(|| at(no, "missing size line"))??;
        no = n;
        let t = line.trim();
        if !(t.is_empty() || t.starts_with('%')) {
            break t.to_string();
        }
    };
    drop(lines);
    let size_no = no;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| at(no, format!("bad size: {t}"))))
        .collect::<Result<_>>()?;
    let &[nr, nc, nnz] = dims.as_slice() else {
        return Err(at(no, format!("bad size line: {size_line}")));
    };
    if symmetric && nr != nc {
        return Err(at(no, format!("symmetric but not square: {nr} x {nc}")));
    }
    check_n_cols("the size line", nc).map_err(|e| at(no, e))?;
    if nr.max(nc) > nnz.saturating_add(UNBACKED) {
        return Err(at(no, format!("{nr} x {nc} with only {nnz} entries")));
    }

    let triplets = nnz.saturating_mul(if symmetric { 2 } else { 1 });
    let mut entries = Vec::with_capacity(triplets.min(UNBACKED));
    // Comment and blank lines among the entries — all the duplicate
    // report below needs to turn an entry's ordinal back into its line.
    let mut skipped = Vec::new();
    let pool = rayon::ThreadPool::default();
    let count = |line: &str| {
        let t = line.trim();
        (!(t.is_empty() || t.starts_with('%'))).then_some(1)
    };
    let fill = |text: &str, first: usize, slots: &mut [(usize, usize, f64)]| {
        let mut slots = slots.iter_mut();
        for (i, line) in text.lines().enumerate() {
            let no = first + i;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let Some(slot) = slots.next() else {
                return Err(at(no, format!("more entries than the {nnz} declared")));
            };
            let mut it = t.split_whitespace();
            let mut tok = || it.next().ok_or_else(|| at(no, "truncated entry"));
            let r = index(tok()?, nr, "row", no)?;
            let c = index(tok()?, nc, "column", no)?;
            let v = finite(tok()?, no)?;
            if it.next().is_some() {
                return Err(at(no, format!("trailing tokens in: {t}")));
            }
            if symmetric && c > r {
                return Err(at(no, "entry above the diagonal of a symmetric file"));
            }
            *slot = (r, c, v);
        }
        Ok(())
    };
    let no = for_each_block(&mut reader, chunking.block, size_no, |text, first| {
        let quota = nnz - entries.len();
        parse_block(
            &pool,
            chunking.ranges,
            text,
            first,
            quota,
            &mut entries,
            &mut skipped,
            count,
            fill,
        )
    })?;
    let seen = entries.len();
    if seen != nnz {
        return Err(at(no, format!("expected {nnz} entries, found {seen}")));
    }
    if symmetric {
        // Indices were range-checked above and a symmetric file is square:
        // the mirror of every off-diagonal entry is in range too. The
        // mirrors follow the file's own entries, which keep file order.
        for i in 0..seen {
            let (r, c, v) = entries[i];
            if r != c {
                entries.push((c, r, v));
            }
        }
    }
    let coo = Coo::from_triplets_trusted(nr, nc, entries);
    coo.to_csr_unique().map_err(|(r, c)| {
        // Failure path only: find the second occurrence and its line. A
        // symmetric file's own entries are the triplets with row ≥ col
        // (the mirrors have row < col).
        let (r, c) = if symmetric && r < c { (c, r) } else { (r, c) };
        let ordinal = coo
            .triplets()
            .iter()
            .filter(|t| !symmetric || t.0 >= t.1)
            .enumerate()
            .filter(|(_, t)| (t.0, t.1) == (r, c))
            .nth(1)
            .map_or(0, |(k, _)| k);
        let mut line = size_no + 1 + ordinal;
        for &s in &skipped {
            line += usize::from(s <= line);
        }
        at(line, format!("duplicate entry ({}, {})", r + 1, c + 1))
    })
}

/// Write a CSR matrix in `coordinate real` format. If `symmetric` is true
/// only the lower triangle is emitted (the matrix must actually be
/// symmetric; unchecked beyond a debug assertion).
pub fn write_matrix<W: Write>(w: &mut W, a: &Csr, symmetric: bool) -> std::io::Result<()> {
    debug_assert!(!symmetric || a.is_symmetric(1e-12));
    let kind = if symmetric { "symmetric" } else { "general" };
    writeln!(w, "%%MatrixMarket matrix coordinate real {kind}")?;
    let entries: Vec<(usize, usize, f64)> = (0..a.n_rows())
        .flat_map(|r| {
            a.row(r)
                .filter(move |&(c, _)| !symmetric || c <= r)
                .map(move |(c, v)| (r, c, v))
        })
        .collect();
    writeln!(w, "{} {} {}", a.n_rows(), a.n_cols(), entries.len())?;
    for (r, c, v) in entries {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Parse a dense vector from whitespace/newline-separated numbers; a
/// token starting with `%` ends its line.
///
/// The lines are parsed in parallel as [`read_matrix`]'s are; the vector
/// and the error are those of a line-by-line parse.
///
/// # Errors
/// [`Error::Parse`] naming the 1-based line of the first token that is
/// not a finite number, or of an I/O or UTF-8 failure.
pub fn read_vector<R: BufRead>(reader: R) -> Result<Vec<f64>> {
    read_vector_in(reader, Chunking::DEFAULT)
}

fn read_vector_in<R: BufRead>(mut reader: R, chunking: Chunking) -> Result<Vec<f64>> {
    fn tokens(line: &str) -> impl Iterator<Item = &str> {
        line.split_whitespace()
            .take_while(|tok| !tok.starts_with('%'))
    }
    let count = |line: &str| Some(tokens(line).count());
    let fill = |text: &str, first: usize, slots: &mut [f64]| {
        let mut slots = slots.iter_mut();
        for (i, line) in text.lines().enumerate() {
            for (tok, slot) in tokens(line).zip(&mut slots) {
                *slot = finite(tok, first + i)?;
            }
        }
        Ok(())
    };
    let pool = rayon::ThreadPool::default();
    let mut out = Vec::new();
    for_each_block(&mut reader, chunking.block, 0, |text, first| {
        parse_block(
            &pool,
            chunking.ranges,
            text,
            first,
            usize::MAX,
            &mut out,
            &mut Vec::new(),
            count,
            fill,
        )
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use std::io::Cursor;

    #[test]
    fn roundtrip_general() {
        let a = generators::grid2d_random(4, 4, 1.0, 3);
        let mut buf = Vec::new();
        write_matrix(&mut buf, &a, false).unwrap();
        let b = read_matrix(Cursor::new(buf)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_symmetric() {
        let (a, _) = generators::paper_example_system();
        let mut buf = Vec::new();
        write_matrix(&mut buf, &a, true).unwrap();
        let b = read_matrix(Cursor::new(buf)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    \n\
                    2 2 2\n\
                    1 1 3.0\n\
                    % midway comment\n\
                    2 2 4.0\n";
        let a = read_matrix(Cursor::new(text)).unwrap();
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(1, 1), 4.0);
    }

    #[test]
    fn bad_header_rejected() {
        assert!(read_matrix(Cursor::new("hello\n1 1 0\n")).is_err());
        assert!(read_matrix(Cursor::new(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2.0\n"
        ))
        .is_err());
    }

    #[test]
    fn zero_based_index_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n0 1 2.0\n";
        assert!(read_matrix(Cursor::new(text)).is_err());
    }

    #[test]
    fn entry_count_mismatch_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(read_matrix(Cursor::new(text)).is_err());
    }

    #[test]
    fn a_width_u32_indices_cannot_name_is_refused_on_the_size_line() {
        // As many entries declared as columns, so only the width refuses.
        let text = "%%MatrixMarket matrix coordinate real general\n3 4294967296 4294967296\n";
        let err = read_matrix(Cursor::new(text)).unwrap_err().to_string();
        assert!(err.contains("line 2") && err.contains("u32"), "{err}");
    }

    /// Every way the tests cut an input: one to eight line ranges per
    /// block, and blocks from a few bytes (shorter than most lines, so the
    /// buffer grows) to the readers' own.
    fn chunkings() -> impl Iterator<Item = Chunking> {
        [5, 16, 64, BLOCK]
            .into_iter()
            .flat_map(|block| (1..=8).map(move |ranges| Chunking { block, ranges }))
    }

    /// The result at every chunking, checked to be the same at all.
    fn at_every_chunking<T: PartialEq + std::fmt::Debug>(
        text: &[u8],
        read: impl Fn(&[u8], Chunking) -> Result<T>,
    ) -> Result<T> {
        let whole = read(
            text,
            Chunking {
                block: BLOCK,
                ranges: 1,
            },
        );
        for chunking in chunkings() {
            assert_eq!(read(text, chunking), whole, "{chunking:?}");
        }
        whole
    }

    fn matrix_in(text: &[u8], chunking: Chunking) -> Result<Csr> {
        read_matrix_in(Cursor::new(text), chunking)
    }

    fn vector_in(text: &[u8], chunking: Chunking) -> Result<Vec<f64>> {
        read_vector_in(Cursor::new(text), chunking)
    }

    fn error_line<T: std::fmt::Debug>(result: Result<T>) -> usize {
        match result {
            Err(Error::Parse(msg)) => msg
                .strip_prefix("line ")
                .and_then(|rest| rest.split(':').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("error names no line: {msg}")),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn line_ranges_are_whole_lines_that_cover_the_text() {
        let text = b"1 1 1.0\n% c\n\n2 2 3.5\r\n3 3 1\n";
        for ranges in 1..=8 {
            let pieces = line_ranges(text, ranges);
            assert!(pieces.len() <= ranges);
            assert_eq!(pieces.concat(), text);
            for piece in &pieces {
                assert_eq!(piece.last(), Some(&b'\n'), "{ranges} ranges");
            }
        }
        assert!(line_ranges(b"", 3).is_empty());
    }

    #[test]
    fn range_parser_gives_the_line_by_line_matrix_at_every_chunking() {
        // Comment, blank and CRLF lines everywhere, so that at some range
        // count each of them starts or ends a range; the last line has no
        // line end.
        let a = generators::grid2d_random(5, 4, 1.0, 9);
        for symmetric in [false, true] {
            let mut buf = Vec::new();
            write_matrix(&mut buf, &a, symmetric).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let mut messy = String::new();
            for (i, line) in text.lines().enumerate() {
                messy.push_str(line);
                messy.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
                if i >= 2 && i % 4 == 2 {
                    messy.push_str("% comment\n");
                }
                if i >= 2 && i % 5 == 3 {
                    messy.push_str("\r\n  \n");
                }
            }
            let messy = messy.trim_end();
            let b = at_every_chunking(messy.as_bytes(), matrix_in);
            assert_eq!(b, Ok(a.clone()));
        }
    }

    #[test]
    fn range_parser_reports_the_first_error_in_file_order() {
        const G: &str = "%%MatrixMarket matrix coordinate real general\n";
        const S: &str = "%%MatrixMarket matrix coordinate real symmetric\n";
        let body = |n: usize| -> String {
            (1..=n)
                .map(|i| format!("{i} {i} {i}.5\n% c {i}\n"))
                .collect()
        };
        for (text, line) in [
            // A duplicate is named at its second occurrence, past comments.
            (format!("{G}9 9 9\n{}4 4 1.0\n", body(8)), 19),
            (format!("{S}% c\n9 9 9\n{}\n4 4 2.0\n", body(8)), 21),
            // One entry too many, then worse faults on later lines.
            (format!("{G}8 8 8\n{}1 1 nan\n9 9 1\n", body(8)), 19),
            // A non-finite value before a 0-based index.
            (format!("{G}8 8 8\n{}1 1 inf\n0 1 1\n", body(7)), 17),
            // Trailing tokens; an entry above the diagonal.
            (format!("{G}9 9 9\n{}9 9 1 1\n", body(8)), 19),
            (format!("{S}9 9 9\n{}8 9 1\n", body(8)), 19),
            // Fewer entries than declared: the last line read.
            (format!("{G}9 9 9\n{}", body(8)), 18),
        ] {
            let err = at_every_chunking(text.as_bytes(), matrix_in);
            assert_eq!(error_line(err), line, "{text:?}");
        }
        // Bytes that are not UTF-8, behind an earlier fault and ahead of
        // a later one.
        let mut bytes = format!("{G}8 8 8\n{}", body(4)).into_bytes();
        bytes.extend_from_slice(b"5 5 \xff\n6 6 nan\n");
        let err = at_every_chunking(&bytes, matrix_in);
        assert_eq!(error_line(err.clone()), 11);
        assert_eq!(err, Err(at(11, NOT_UTF8)));
        let lines_err = Cursor::new(&b"\xff"[..])
            .lines()
            .next()
            .unwrap()
            .unwrap_err();
        assert_eq!(lines_err.to_string(), NOT_UTF8);
    }

    #[test]
    fn range_parser_gives_the_line_by_line_vector_at_every_chunking() {
        let text = "1.0 2.0\r\n% all comment\n\n3 % 99\n-4e0\t5\r\n6";
        let v = at_every_chunking(text.as_bytes(), vector_in);
        assert_eq!(v, Ok(vec![1.0, 2.0, 3.0, -4.0, 5.0, 6.0]));
        let text = "1\n2\n\n3 x\n4\n5 nan\n";
        assert_eq!(error_line(at_every_chunking(text.as_bytes(), vector_in)), 4);
        let bytes = b"1\n2 3\n\n4 \xfe\n5 nan\n";
        assert_eq!(error_line(at_every_chunking(bytes, vector_in)), 4);
    }

    #[test]
    fn vector_parse() {
        let v = read_vector(Cursor::new("1.0 2.0\n3.0\n")).unwrap();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }
}
