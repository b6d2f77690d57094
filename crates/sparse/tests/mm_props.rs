//! Matrix Market reader properties: `write_matrix → read_matrix` is the
//! identity on SPD grids in both storage forms, and the readers are
//! *total* — byte soup, truncated files and hostile size lines produce a
//! typed error naming a line, never a panic and never an allocation sized
//! by a number the file merely claims. One named case per defect the
//! reader used to have.

use dtm_sparse::mm::{read_matrix, read_vector, write_matrix};
use dtm_sparse::{generators, Csr, Error};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single request this test binary ever made of the allocator —
/// how "no allocation proportional to a hostile size line" is observed
/// rather than assumed. Process-wide, which is fine: no test in this file
/// has a legitimate reason to ask for more than [`ALLOC_CEILING`] at once.
static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

/// Comfortably above the reader's fixed up-front reservation (2²⁰
/// triplets = 24 MiB), far below anything sized by a 2⁴⁰ in a size line.
const ALLOC_CEILING: usize = 64 << 20;

struct HighWaterAllocator;

// SAFETY: every call is forwarded verbatim to `System`; the only addition
// is a relaxed atomic max on the requested size.
unsafe impl GlobalAlloc for HighWaterAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: HighWaterAllocator = HighWaterAllocator;

const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n";
const SYMMETRIC: &str = "%%MatrixMarket matrix coordinate real symmetric\n";

fn parse(text: &str) -> Result<Csr, Error> {
    read_matrix(Cursor::new(text.as_bytes()))
}

/// The 1-based line an [`Error::Parse`] names.
///
/// # Panics
/// Panics when `result` is `Ok`, another error variant, or a message not
/// of the form `line N: …` — each of which is the defect under test.
fn error_line<T: std::fmt::Debug>(result: Result<T, Error>) -> usize {
    match result {
        Err(Error::Parse(msg)) => msg
            .strip_prefix("line ")
            .and_then(|rest| rest.split(':').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("error names no line: {msg}")),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

fn written(a: &Csr, symmetric: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    write_matrix(&mut buf, a, symmetric).expect("writing to a Vec cannot fail");
    buf
}

#[test]
fn hostile_size_lines_are_rejected_without_allocating_for_them() {
    for huge in [u64::MAX, 1 << 61, 1 << 60, 1 << 40] {
        for field in 0..3 {
            let mut dims = [2u64; 3];
            dims[field] = huge;
            let [nr, nc, nnz] = dims;
            for header in [GENERAL, SYMMETRIC] {
                // With and without the entries a 2 × 2 file would have.
                for body in ["", "1 1 1.0\n2 2 1.0\n"] {
                    let text = format!("{header}{nr} {nc} {nnz}\n{body}");
                    assert!(parse(&text).is_err(), "accepted: {nr} {nc} {nnz}");
                }
            }
        }
    }
    // 2 · 2⁶⁰ triplets used to reach `Vec::with_capacity` ("capacity
    // overflow"), 2 · u64::MAX overflowed the multiplication itself; now
    // the file simply ends after 1 of the declared entries.
    for nnz in ["1152921504606846976", "18446744073709551615"] {
        let text = format!("{SYMMETRIC}2 2 {nnz}\n1 1 1.0\n");
        assert_eq!(error_line(parse(&text)), 3);
    }
    // Dimensions with no entries to back them: the CSR row pointer alone
    // would be 8 TiB.
    assert_eq!(
        error_line(parse(&format!("{GENERAL}1099511627776 1099511627776 0\n"))),
        2
    );
    // A size that does not even fit the index type.
    assert_eq!(
        error_line(parse(&format!("{GENERAL}2 2 18446744073709551616\n"))),
        2
    );
    assert!(
        LARGEST_REQUEST.load(Ordering::Relaxed) <= ALLOC_CEILING,
        "a size line bought a {} byte allocation",
        LARGEST_REQUEST.load(Ordering::Relaxed)
    );
}

#[test]
fn non_finite_matrix_values_are_rejected() {
    for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
        let text = format!("{GENERAL}2 2 2\n1 1 1.0\n2 2 {bad}\n");
        assert_eq!(error_line(parse(&text)), 4, "{bad}");
    }
}

#[test]
fn non_finite_vector_values_are_rejected() {
    assert_eq!(error_line(read_vector(Cursor::new("1.0 nan inf"))), 1);
    assert_eq!(error_line(read_vector(Cursor::new("1.0\n2.0\n-inf\n"))), 3);
    assert_eq!(error_line(read_vector(Cursor::new("1.0\nx\n"))), 2);
    // Comments still end a line, finite values still parse.
    let v = read_vector(Cursor::new("1.0 -2.5e0 % nan\n3\n")).expect("finite");
    assert_eq!(v, vec![1.0, -2.5, 3.0]);
}

#[test]
fn symmetric_file_listing_both_triangles_is_rejected() {
    // Used to parse with the off-diagonals silently doubled to −2.
    let text = format!("{SYMMETRIC}2 2 4\n1 1 4.0\n2 1 -1.0\n1 2 -1.0\n2 2 4.0\n");
    assert_eq!(error_line(parse(&text)), 5);
    // The lower triangle alone is the same matrix, once.
    let a = parse(&format!("{SYMMETRIC}2 2 3\n1 1 4.0\n2 1 -1.0\n2 2 4.0\n")).expect("valid");
    assert_eq!((a.get(0, 1), a.get(1, 0)), (-1.0, -1.0));
}

#[test]
fn duplicate_coordinates_are_rejected_naming_the_second_occurrence() {
    // General: used to sum to 3.0.
    let text = format!("{GENERAL}2 2 3\n1 1 1.0\n2 2 5.0\n1 1 2.0\n");
    assert_eq!(error_line(parse(&text)), 5);
    // Symmetric, with comment and blank lines shifting the entry lines;
    // a cancelling pair must not slip through as "no entry at all".
    let text =
        format!("{SYMMETRIC}% c\n3 3 4\n\n2 1 -1.0\n% c\n3 3 2.0\n\n% c\n2 1 1.0\n1 1 4.0\n");
    assert_eq!(error_line(parse(&text)), 10);
    // A zero-valued duplicate is still a duplicate.
    let text = format!("{GENERAL}2 2 3\n1 1 0.0\n1 1 2.0\n2 2 1.0\n");
    assert_eq!(error_line(parse(&text)), 4);
}

#[test]
fn trailing_tokens_are_rejected() {
    let text = format!("{GENERAL}1 1 1\n1 1 2.0 junk\n");
    assert_eq!(error_line(parse(&text)), 3);
    let text = format!("{GENERAL}1 1 1 1\n1 1 2.0\n");
    assert_eq!(error_line(parse(&text)), 2);
    // The header line takes its five tokens and no more.
    for header in [
        "%%MatrixMarket matrix coordinate real symmetric junk",
        "%%MatrixMarket matrix coordinate real general general",
    ] {
        let text = format!("{header}\n1 1 1\n1 1 2.0\n");
        assert_eq!(error_line(parse(&text)), 1, "{header}");
    }
}

#[test]
fn every_error_names_its_line() {
    for (header, body, line) in [
        ("", "", 1),
        ("hello\n", "1 1 0\n", 1),
        (
            "%%MatrixMarket matrix coordinate complex general\n",
            "1 1 1\n",
            1,
        ),
        (
            "%%MatrixMarket matrix coordinate real hermitian\n",
            "1 1 1\n",
            1,
        ),
        (GENERAL, "% only comments\n\n", 3),
        (GENERAL, "% c\n2 x 1\n", 3),
        (GENERAL, "2 2\n", 2),
        (SYMMETRIC, "2 3 1\n1 1 1.0\n", 2),
        (GENERAL, "2 2 1\n0 1 2.0\n", 3),
        (GENERAL, "2 2 1\n1 3 2.0\n", 3),
        (GENERAL, "2 2 1\n3 1 2.0\n", 3),
        (GENERAL, "2 2 1\n1 -1 2.0\n", 3),
        (GENERAL, "2 2 1\n1 1\n", 3),
        (GENERAL, "2 2 1\n1\n", 3),
        (GENERAL, "2 2 1\n1 1 two\n", 3),
        (GENERAL, "2 2 1\n1 1 1.0\n\n2 2 1.0\n", 5),
        (GENERAL, "2 2 3\n1 1 1.0\n% c\n", 4),
    ] {
        assert_eq!(
            error_line(parse(&format!("{header}{body}"))),
            line,
            "{body:?}"
        );
    }
    // Invalid UTF-8 is an error of the line it sits on, not a panic.
    let bytes = [GENERAL.as_bytes(), b"1 1 1\n1 1 \xff\n"].concat();
    assert_eq!(error_line(read_matrix(Cursor::new(bytes))), 3);
}

#[test]
fn every_strict_prefix_is_an_error_or_a_valid_parse() {
    let a = generators::grid2d_random(3, 3, 1.0, 5);
    for symmetric in [false, true] {
        let bytes = written(&a, symmetric);
        assert_eq!(read_matrix(Cursor::new(&bytes)).expect("whole file"), a);
        for len in 0..bytes.len() {
            // Cutting inside the last value can leave a shorter number
            // that still parses; anything accepted must at least be a
            // matrix of the declared shape.
            if let Ok(m) = read_matrix(Cursor::new(&bytes[..len])) {
                assert_eq!((m.n_rows(), m.n_cols()), (9, 9), "prefix {len}");
                assert!(m.nnz() <= a.nnz(), "prefix {len}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// write → read is the identity, bit for bit, in both storage forms.
    #[test]
    fn roundtrip_is_identity_on_random_spd_grids(
        nx in 1usize..7,
        ny in 1usize..7,
        seed in any::<u64>(),
    ) {
        let a = generators::grid2d_random(nx, ny, 1.0, seed);
        for symmetric in [false, true] {
            let b = read_matrix(Cursor::new(written(&a, symmetric)));
            prop_assert_eq!(b, Ok(a.clone()));
        }
    }

    /// Both readers are total: on arbitrary bytes, and on soup drawn from
    /// the format's own alphabet behind a valid header, which gets past
    /// the header check and into the size and entry parsers.
    #[test]
    fn soup_never_panics(
        bytes in proptest::collection::vec(0u64..256, 0..300)
            .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()),
        symmetric in any::<bool>(),
        picks in proptest::collection::vec(0usize..24, 0..200),
    ) {
        const ALPHABET: &[u8; 24] = b"0123456789 \n\n  .-+e%naif";
        let plausible: Vec<u8> = picks.iter().map(|&i| ALPHABET[i]).collect();
        let header = if symmetric { SYMMETRIC } else { GENERAL }.as_bytes();
        for soup in [bytes, plausible] {
            let _ = read_matrix(Cursor::new(&soup));
            let _ = read_matrix(Cursor::new([header, &soup].concat()));
            let _ = read_vector(Cursor::new(&soup));
        }
    }
}
