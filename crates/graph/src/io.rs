//! Graph serialization.
//!
//! Three formats:
//!
//! - **Text edge list** (`.el`): one `u v` pair per line, `#` comments and
//!   blank lines ignored — the interchange format used by GAPBS and most
//!   public graph repositories (so real datasets can be dropped in when
//!   available).
//! - **Binary CSR** (`.acsr`): a little-endian dump of the offsets/targets
//!   arrays with a magic header, for fast reload of generated benchmarks.
//! - **Node array** (`.arr`, e.g. `afforest-serve`'s parent snapshot):
//!   `AFARR` magic and version, u64 length, the slots as little-endian
//!   u32s, and a trailing u64 checksum. Version 2, the one written, folds
//!   FNV-1a's xor-multiply once per slot; version 1, still read, folded it
//!   once per byte ([`checksum64`]).

use crate::error::{Error, Result};
use crate::{CsrGraph, EdgeList, GraphBuilder, Node};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying the binary CSR format, followed by a version.
const MAGIC: &[u8; 8] = b"AFCSR\x00\x00\x01";

/// Reads a text edge list. Lines are `u v` (whitespace separated);
/// `#`-prefixed lines and blank lines are skipped. The vertex universe is
/// `max endpoint + 1` unless `min_vertices` demands more.
pub fn read_edge_list<P: AsRef<Path>>(path: P, min_vertices: usize) -> Result<EdgeList> {
    let file = File::open(path)?;
    let reader = BufReader::new(file);
    let mut edges: Vec<(Node, Node)> = Vec::new();
    let mut max_v = 0usize;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<Node> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse::<Node>()
                .map_err(|_| bad_line(lineno))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_v = max_v.max(u.max(v) as usize + 1);
        edges.push((u, v));
    }
    let n = max_v.max(min_vertices);
    Ok(EdgeList::from_vec(n, edges))
}

fn bad_line(lineno: usize) -> Error {
    Error::malformed(
        "edge list",
        format!("expected two integer endpoints on line {}", lineno + 1),
    )
}

/// Writes a graph as a text edge list (each undirected edge once, `u <= v`).
pub fn write_edge_list<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(
        w,
        "# {} vertices, {} undirected edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u, v)?;
    }
    w.flush()
}

/// Writes a graph in the binary CSR format.
pub fn write_binary<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_arcs() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &t in g.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    w.flush()
}

/// Reads a graph from the binary CSR format.
///
/// Corrupt files — bad magic, truncation, or offsets/targets that do not
/// describe a CSR structure — come back as [`Error::Malformed`] /
/// [`Error::InvalidGraph`] rather than panicking.
pub fn read_binary<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    let file = File::open(path)?;
    // Bytes past the magic and the two counts.
    let left = file.metadata()?.len().saturating_sub(24);
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(Error::malformed("AFCSR", "not an AFCSR file (bad magic)"));
    }
    let declared_n = read_u64(&mut r)?;
    let declared_arcs = read_u64(&mut r)?;
    // n + 1 u64 offsets, then `arcs` u32 targets.
    let (num_offsets, arcs) = len_within(declared_arcs, 4, left)
        .and_then(|arcs| {
            let left = left - 4 * declared_arcs;
            Some((len_within(declared_n.checked_add(1)?, 8, left)?, arcs))
        })
        .ok_or_else(|| {
            Error::malformed(
                "AFCSR",
                format!(
                    "header declares {declared_n} vertices and {declared_arcs} arcs, \
                     more than the file holds"
                ),
            )
        })?;
    let offsets = read_words(&mut r, num_offsets, |b| u64::from_le_bytes(b) as usize)?;
    let targets = read_words(&mut r, arcs, Node::from_le_bytes)?;
    if offsets.last().copied() != Some(arcs) {
        return Err(Error::malformed(
            "AFCSR",
            "offsets inconsistent with arc count",
        ));
    }
    CsrGraph::try_from_parts(offsets, targets)
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Words decoded per `read` call of [`read_words`].
const READ_WORDS: usize = 1 << 16;

/// Reads `count` little-endian words of `N` bytes each, a bounded buffer
/// at a time. `count` must already be checked against the file
/// ([`len_within`]): it is allocated for up front.
fn read_words<const N: usize, T>(
    r: &mut impl Read,
    count: usize,
    decode: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut words = Vec::with_capacity(count);
    let mut buf = vec![0u8; N * READ_WORDS.min(count)];
    while words.len() < count {
        let bytes = &mut buf[..N * READ_WORDS.min(count - words.len())];
        r.read_exact(bytes)?;
        words.extend(bytes.as_chunks::<N>().0.iter().map(|&w| decode(w)));
    }
    Ok(words)
}

/// `count` as a `usize`, if `count` items of `width` bytes fit in the
/// `left` bytes the file still holds. Readers check each length field
/// with it before allocating, so a corrupt length is a
/// [`Error::Malformed`] rather than an allocation of the size it claims.
fn len_within(count: u64, width: u64, left: u64) -> Option<usize> {
    count
        .checked_mul(width)
        .filter(|&bytes| bytes <= left)
        .and_then(|_| usize::try_from(count).ok())
}

/// Magic bytes identifying a serialized node array (parent snapshots,
/// label dumps), followed by a version: 2, checksummed per slot.
const ARRAY_MAGIC: &[u8; 8] = b"AFARR\x00\x00\x02";

/// Version 1 of the node-array format: the same layout, checksummed per
/// byte with [`checksum64`]. Read, never written.
const ARRAY_MAGIC_V1: &[u8; 8] = b"AFARR\x00\x00\x01";

/// Slots encoded per `write` call of [`write_node_slices`] (256 KiB).
const WRITE_SLOTS: usize = 1 << 16;

/// FNV-1a's 64-bit offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// One FNV-1a step: xor `word` into the state, then multiply.
fn fnv_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64-bit checksum, one step per byte: the integrity check of
/// `afforest-serve`'s edge-log headers and records (its write-ahead log
/// and the router's logs) and of version-1 node arrays. Version-2 node
/// arrays take one step per u32 slot instead, a quarter of the serial
/// multiplies over the same bytes. Not cryptographic — it detects torn
/// writes and bit rot, which is all a local log needs.
pub fn checksum64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| fnv_step(h, u64::from(b)))
}

/// Writes a node array (e.g. a parent-pointer snapshot): a
/// [`write_node_slices`] of one slice.
pub fn write_node_array<P: AsRef<Path>>(path: P, nodes: &[Node]) -> io::Result<()> {
    write_node_slices(path, &[nodes])
}

/// Writes the node array that is the concatenation of `slices` (e.g. the
/// pages of a paged array) in format version 2: magic header, length,
/// the slots as little-endian u32s and a trailing checksum of one FNV-1a
/// step per slot, so a torn or bit-rotted file is detected on read
/// rather than silently restored. The slots are encoded and checksummed
/// in one pass, a bounded buffer at a time; the whole array is never
/// copied.
pub fn write_node_slices<P: AsRef<Path>>(path: P, slices: &[&[Node]]) -> io::Result<()> {
    let len: usize = slices.iter().map(|s| s.len()).sum();
    let mut file = File::create(path)?;
    let mut buf = Vec::with_capacity(8 * WRITE_SLOTS);
    buf.extend_from_slice(ARRAY_MAGIC);
    buf.extend_from_slice(&(len as u64).to_le_bytes());
    let mut sum = FNV_OFFSET;
    for part in slices.iter().flat_map(|s| s.chunks(WRITE_SLOTS)) {
        let start = buf.len();
        buf.resize(start + 4 * part.len(), 0);
        for (bytes, &v) in buf[start..].chunks_exact_mut(4).zip(part) {
            bytes.copy_from_slice(&v.to_le_bytes());
            sum = fnv_step(sum, u64::from(v));
        }
        if buf.len() >= 4 * WRITE_SLOTS {
            file.write_all(&buf)?;
            buf.clear();
        }
    }
    buf.extend_from_slice(&sum.to_le_bytes());
    file.write_all(&buf)
}

/// Reads a node array written by [`write_node_array`] or
/// [`write_node_slices`], in format version 2 or 1. Bad magic or version,
/// truncation, and checksum mismatches all come back as errors, never a
/// panic.
pub fn read_node_array<P: AsRef<Path>>(path: P) -> Result<Vec<Node>> {
    let file = File::open(path)?;
    // Bytes past the magic and the length, less the trailing checksum.
    let left = file.metadata()?.len().saturating_sub(24);
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    let v1 = match &magic {
        ARRAY_MAGIC => false,
        ARRAY_MAGIC_V1 => true,
        _ => return Err(Error::malformed("AFARR", "not an AFARR file (bad magic)")),
    };
    let declared_len = read_u64(&mut r)?;
    let len = len_within(declared_len, 4, left).ok_or_else(|| {
        Error::malformed(
            "AFARR",
            format!("declared length {declared_len} exceeds the file"),
        )
    })?;
    let mut payload = vec![0u8; 4 * len];
    r.read_exact(&mut payload)?;
    let declared = read_u64(&mut r)?;
    let nodes: Vec<Node> = payload
        .chunks_exact(4)
        .map(|b| Node::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    let sum = if v1 {
        checksum64(&payload)
    } else {
        nodes
            .iter()
            .fold(FNV_OFFSET, |h, &v| fnv_step(h, u64::from(v)))
    };
    if sum != declared {
        return Err(Error::malformed("AFARR", "checksum mismatch"));
    }
    Ok(nodes)
}

/// Loads a text edge list straight into a CSR graph.
///
/// ```no_run
/// let g = afforest_graph::io::load_edge_list_graph("graph.el").unwrap();
/// println!("{} vertices", g.num_vertices());
/// ```
pub fn load_edge_list_graph<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    let el = read_edge_list(path, 0)?;
    Ok(GraphBuilder::from_edge_list(el).build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::uniform_random;

    fn tempfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("afforest-io-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn text_roundtrip() {
        let g = uniform_random(200, 600, 4);
        let p = tempfile("roundtrip.el");
        write_edge_list(&g, &p).unwrap();
        let g2 = load_edge_list_graph(&p).unwrap();
        std::fs::remove_file(&p).unwrap();
        // Vertex universe can shrink if trailing vertices are isolated;
        // compare edges instead.
        let mut e1 = g.collect_edges();
        let mut e2 = g2.collect_edges();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
    }

    #[test]
    fn binary_roundtrip_exact() {
        // The second graph's offsets and targets span several read buffers.
        for (n, m) in [(300, 1500), (100_000, 150_000)] {
            let g = uniform_random(n, m, 6);
            let p = tempfile("roundtrip.acsr");
            write_binary(&g, &p).unwrap();
            let g2 = read_binary(&p).unwrap();
            std::fs::remove_file(&p).unwrap();
            assert_eq!(g, g2);
        }
    }

    #[test]
    fn node_array_roundtrip_and_corruption() {
        let nodes: Vec<Node> = (0..500).map(|v| v / 3).collect();
        let p = tempfile("parents.arr");
        write_node_array(&p, &nodes).unwrap();
        assert_eq!(read_node_array(&p).unwrap(), nodes);

        // Flip one payload byte: checksum mismatch, typed error.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[20] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        let err = read_node_array(&p).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncate mid-payload: io error, not a panic.
        std::fs::write(&p, &bytes[..30]).unwrap();
        assert!(read_node_array(&p).is_err());

        // Wrong magic.
        std::fs::write(&p, b"NOTMAGIC????????????????").unwrap();
        let err = read_node_array(&p).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&p).unwrap();

        // Empty arrays roundtrip too.
        let p2 = tempfile("empty.arr");
        write_node_array(&p2, &[]).unwrap();
        assert_eq!(read_node_array(&p2).unwrap(), Vec::<Node>::new());
        std::fs::remove_file(&p2).unwrap();
    }

    #[test]
    fn node_array_length_beyond_the_file_is_malformed() {
        let p = tempfile("overlong.arr");
        write_node_array(&p, &[0, 0, 1]).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // 4 is one slot too many; 2^33 slots would take 32 GiB; the last
        // two overflow a byte count.
        for claim in [4, 1 << 33, u64::MAX / 4 + 1, u64::MAX] {
            let mut bad = bytes.clone();
            bad[8..16].copy_from_slice(&claim.to_le_bytes());
            std::fs::write(&p, &bad).unwrap();
            match read_node_array(&p) {
                Err(Error::Malformed { detail, .. }) => {
                    assert!(detail.contains("exceeds the file"), "{claim}: {detail}")
                }
                other => panic!("length {claim}: expected Malformed, got {other:?}"),
            }
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn binary_csr_lengths_beyond_the_file_are_malformed() {
        let p = tempfile("overlong.acsr");
        write_binary(&GraphBuilder::from_edges(4, &[(0, 1), (2, 3)]).build(), &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // (vertices, arcs): one vertex or arc too many, 2^33 of either,
        // and counts whose byte sizes or `n + 1` overflow.
        for (n, arcs) in [
            (5, 4),
            (4, 5),
            (1 << 33, 4),
            (4, 1 << 33),
            (u64::MAX, 4),
            (4, u64::MAX),
            (u64::MAX / 8, 0),
        ] {
            let mut bad = bytes.clone();
            bad[8..16].copy_from_slice(&n.to_le_bytes());
            bad[16..24].copy_from_slice(&arcs.to_le_bytes());
            std::fs::write(&p, &bad).unwrap();
            match read_binary(&p) {
                Err(Error::Malformed { detail, .. }) => {
                    assert!(detail.contains("more than the file holds"), "{detail}")
                }
                other => panic!("({n}, {arcs}): expected Malformed, got {other:?}"),
            }
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn node_slices_encode_like_one_array_at_any_cut() {
        let all: Vec<Node> = (0..2 * WRITE_SLOTS as Node + 7)
            .map(|v| v.wrapping_mul(2_654_435_761))
            .collect();
        let (p, whole) = (tempfile("sliced.arr"), tempfile("whole.arr"));
        // Odd and even totals, n = 0, and slice lengths that leave a short
        // last slice or straddle the encoder's write buffer.
        for n in [0, 1, 7, 3 * 4096 + 5, all.len()] {
            let nodes = &all[..n];
            write_node_array(&whole, nodes).unwrap();
            let expected = std::fs::read(&whole).unwrap();
            for len in [1, 3, 4096, WRITE_SLOTS + 1] {
                let mut slices: Vec<&[Node]> = nodes.chunks(len).collect();
                slices.insert(slices.len() / 2, &[]);
                write_node_slices(&p, &slices).unwrap();
                assert_eq!(std::fs::read(&p).unwrap(), expected, "n {n}, slice {len}");
                assert_eq!(read_node_array(&p).unwrap(), nodes, "n {n}, slice {len}");
            }
        }
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(&whole).unwrap();
    }

    #[test]
    fn version_one_arrays_still_read() {
        let nodes: Vec<Node> = (0..37).map(|v| v / 2).collect();
        let payload: Vec<u8> = nodes.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut bytes = b"AFARR\x00\x00\x01".to_vec();
        bytes.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&checksum64(&payload).to_le_bytes());
        let p = tempfile("v1.arr");
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(read_node_array(&p).unwrap(), nodes);

        // The version byte picks the checksum: the same bytes labelled
        // version 2 do not verify.
        bytes[7] = 2;
        std::fs::write(&p, &bytes).unwrap();
        let err = read_node_array(&p).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn every_single_bit_flip_of_a_v2_payload_is_a_checksum_mismatch() {
        let p = tempfile("bitflip.arr");
        write_node_array(&p, &[0, 0, 1, 2, 2, 4, 1_000_000]).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // Payload and trailing checksum; the 16 header bytes are the magic
        // and the length.
        for bit in 16 * 8..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&p, &flipped).unwrap();
            let err = read_node_array(&p).unwrap_err();
            assert!(err.to_string().contains("checksum"), "bit {bit}: {err}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn unknown_array_magic_or_version_is_rejected() {
        let p = tempfile("version.arr");
        write_node_array(&p, &[0, 1, 1]).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // A foreign magic, versions 0 and 3, and a nonzero padding byte.
        for (at, value) in [(0, b'X'), (7, 0), (7, 3), (6, 2)] {
            let mut bad = bytes.clone();
            bad[at] = value;
            std::fs::write(&p, &bad).unwrap();
            let err = read_node_array(&p).unwrap_err();
            assert!(
                err.to_string().contains("magic"),
                "byte {at} = {value}: {err}"
            );
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn text_parser_skips_comments_and_blanks() {
        let p = tempfile("comments.el");
        {
            let mut f = File::create(&p).unwrap();
            writeln!(f, "# header").unwrap();
            writeln!(f).unwrap();
            writeln!(f, "0 1").unwrap();
            writeln!(f, "  2   3  ").unwrap();
        }
        let el = read_edge_list(&p, 0).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert_eq!(el.edges(), &[(0, 1), (2, 3)]);
        assert_eq!(el.num_vertices(), 4);
    }

    #[test]
    fn text_parser_reports_bad_lines() {
        let p = tempfile("bad.el");
        std::fs::write(&p, "0 1\nnot numbers\n").unwrap();
        let err = read_edge_list(&p, 0).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn min_vertices_grows_universe() {
        let p = tempfile("minv.el");
        std::fs::write(&p, "0 1\n").unwrap();
        let el = read_edge_list(&p, 10).unwrap();
        std::fs::remove_file(&p).unwrap();
        assert_eq!(el.num_vertices(), 10);
    }

    #[test]
    fn binary_rejects_garbage() {
        let p = tempfile("garbage.acsr");
        std::fs::write(&p, b"definitely not a graph").unwrap();
        let err = read_binary(&p).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(err.to_string().contains("magic"));
        assert!(matches!(err, Error::Malformed { .. }));
    }

    #[test]
    fn binary_rejects_truncation_without_panicking() {
        let g = uniform_random(100, 400, 3);
        let p = tempfile("truncated.acsr");
        write_binary(&g, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() / 2]).unwrap();
        let err = read_binary(&p).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        // The header's counts no longer fit the file: caught before any
        // read or allocation.
        assert!(matches!(err, Error::Malformed { .. }), "got {err}");
    }

    #[test]
    fn binary_rejects_inconsistent_structure_without_panicking() {
        // Valid magic and counts (n = 2, arcs = 2) but non-monotone
        // offsets [0, 3, 2]: the last entry matches the arc count, so the
        // structural validation inside try_from_parts must catch it.
        let p = tempfile("badstructure.acsr");
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u64.to_le_bytes()); // n
        bytes.extend_from_slice(&2u64.to_le_bytes()); // arcs
        for o in [0u64, 3, 2] {
            bytes.extend_from_slice(&o.to_le_bytes());
        }
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let err = read_binary(&p).unwrap_err();
        std::fs::remove_file(&p).unwrap();
        assert!(matches!(err, Error::InvalidGraph(_)), "got {err}");
        assert!(err.to_string().contains("monotone"));
    }
}
