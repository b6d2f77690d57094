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

use crate::coo::Coo;
use crate::csr::Csr;
use crate::error::{Error, Result};
use std::io::{BufRead, Write};

/// What [`read_matrix`] will allocate on the size line's word alone,
/// before the file's own entry lines have paid for more: the up-front
/// triplet reservation is capped at this many, and a dimension may exceed
/// the declared entry count by at most this much (the CSR row pointer is
/// `O(rows)`, and no entry line backs an empty row).
const UNBACKED: usize = 1 << 20;

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

/// Parse a Matrix Market stream into CSR.
///
/// Symmetric files are expanded to both triangles; they must be square
/// and list the lower triangle only. Every coordinate may appear once.
///
/// # Errors
/// [`Error::Parse`] naming the offending 1-based line for anything else:
/// malformed header or size line, dimensions the declared entry count
/// cannot back, out-of-range or 0-based indices, non-finite values,
/// trailing tokens, an entry above the diagonal of a symmetric file,
/// duplicate coordinates, more or fewer entries than declared, I/O and
/// UTF-8 failures.
pub fn read_matrix<R: BufRead>(reader: R) -> Result<Csr> {
    let mut lines = numbered(reader);
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
    if nr.max(nc) > nnz.saturating_add(UNBACKED) {
        return Err(at(no, format!("{nr} x {nc} with only {nnz} entries")));
    }

    let triplets = nnz.saturating_mul(if symmetric { 2 } else { 1 });
    let mut coo = Coo::with_capacity(nr, nc, triplets.min(UNBACKED));
    // Comment and blank lines among the entries — all the duplicate
    // report below needs to turn an entry's ordinal back into its line.
    let mut skipped = Vec::new();
    let mut seen = 0usize;
    for item in lines {
        let (n, line) = item?;
        no = n;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            skipped.push(no);
            continue;
        }
        if seen == nnz {
            return Err(at(no, format!("more entries than the {nnz} declared")));
        }
        let mut it = t.split_whitespace();
        let mut tok = || it.next().ok_or_else(|| at(no, "truncated entry"));
        let r = index(tok()?, nr, "row", no)?;
        let c = index(tok()?, nc, "column", no)?;
        let v = finite(tok()?, no)?;
        if it.next().is_some() {
            return Err(at(no, format!("trailing tokens in: {t}")));
        }
        // Indices were range-checked just above (and a symmetric file is
        // square), so the unchecked pushes cannot go out of bounds.
        if !symmetric {
            coo.push_trusted(r, c, v);
        } else if c <= r {
            coo.push_sym_trusted(r, c, v);
        } else {
            return Err(at(no, "entry above the diagonal of a symmetric file"));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(at(no, format!("expected {nnz} entries, found {seen}")));
    }
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

/// Parse a dense vector from whitespace/newline-separated numbers.
///
/// # Errors
/// [`Error::Parse`] naming the 1-based line of a token that is not a
/// finite number, or of an I/O or UTF-8 failure.
pub fn read_vector<R: BufRead>(reader: R) -> Result<Vec<f64>> {
    let mut out = Vec::new();
    for item in numbered(reader) {
        let (no, line) = item?;
        for tok in line.split_whitespace() {
            if tok.starts_with('%') {
                break;
            }
            out.push(finite(tok, no)?);
        }
    }
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
    fn vector_parse() {
        let v = read_vector(Cursor::new("1.0 2.0\n3.0\n")).unwrap();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }
}
