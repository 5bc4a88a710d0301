//! Seeded input generators shared by the benchmark workloads.
//!
//! Every generator takes an explicit RNG so workloads are reproducible:
//! the same (benchmark, scale, seed) triple always yields byte-identical
//! inputs, which keeps every table in EXPERIMENTS.md regenerable.

use branchlab_telemetry::Rng;

/// How large to make generated inputs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny inputs for unit/integration tests (≤ ~2 KB per run).
    Test,
    /// The default experiment scale (tens of KB per run — enough for
    /// branch statistics to converge).
    Small,
    /// Larger runs approaching the paper's dynamic instruction counts
    /// where practical.
    Paper,
}

impl Scale {
    /// The accepted spellings, as shown in usage text and errors.
    pub const NAMES: &'static str = "test|small|paper";

    /// A size knob: roughly the number of "units" (lines, records,
    /// expressions…) a generator should produce.
    #[must_use]
    pub fn units(self) -> usize {
        match self {
            Scale::Test => 40,
            Scale::Small => 1_200,
            Scale::Paper => 12_000,
        }
    }

    /// The canonical short name (`"test"` / `"small"` / `"paper"`), as
    /// used on command lines, in trace keys and in request
    /// canonicalization.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parse a canonical [`Scale::name`].
    fn from_str(s: &str) -> Result<Self, String> {
        [Scale::Test, Scale::Small, Scale::Paper]
            .into_iter()
            .find(|scale| scale.name() == s)
            .ok_or_else(|| format!("unknown scale `{s}` ({})", Scale::NAMES))
    }
}

impl branchlab_telemetry::cli::FlagValue for Scale {
    const EXPECTED: &'static str = Scale::NAMES;
}

const WORDS: &[&str] = &[
    "the",
    "quick",
    "brown",
    "fox",
    "jumps",
    "over",
    "lazy",
    "dog",
    "pack",
    "my",
    "box",
    "with",
    "five",
    "dozen",
    "liquor",
    "jugs",
    "pipeline",
    "branch",
    "target",
    "buffer",
    "cache",
    "fetch",
    "decode",
    "execute",
    "semantic",
    "forward",
    "trace",
    "profile",
    "compiler",
    "hardware",
    "software",
    "scheme",
    "cost",
    "cycle",
    "instruction",
];

/// Random prose: words separated by spaces, wrapped into lines of
/// 3–9 words. Used by wc, tee, grep, compress.
pub fn text(rng: &mut Rng, lines: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..lines {
        let n = rng.gen_range(3..=9);
        for w in 0..n {
            if w > 0 {
                out.push(b' ');
            }
            out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
        }
        out.push(b'\n');
    }
    out
}

/// A C-ish source file (identifiers, punctuation, numbers, keywords,
/// comments, preprocessor lines) for cccp, lex and wc.
pub fn c_source(rng: &mut Rng, lines: usize) -> Vec<u8> {
    let base = [
        "count", "buf", "i", "j", "tmp", "state", "next", "len", "ptr", "val",
    ];
    let kws = ["int", "if", "while", "return", "else", "for", "char"];
    // A per-file vocabulary with numbered variants, so identifier streams
    // have both repetition (macro hits) and novelty (LZW/dict misses).
    let idents: Vec<String> = (0..40)
        .map(|_| {
            let b = base[rng.gen_range(0..base.len())];
            if rng.gen_bool(0.5) {
                format!("{b}{}", rng.gen_range(0..100))
            } else {
                b.to_string()
            }
        })
        .collect();
    let idents: Vec<&str> = idents.iter().map(String::as_str).collect();
    let mut out = Vec::new();
    for li in 0..lines {
        match rng.gen_range(0..10) {
            0 => {
                out.extend_from_slice(b"#define LIM_");
                out.extend_from_slice(idents[rng.gen_range(0..idents.len())].as_bytes());
                out.extend_from_slice(format!(" {}\n", rng.gen_range(0..4096)).as_bytes());
            }
            1 => {
                if rng.gen_bool(0.4) {
                    // An #ifdef block over a macro that may or may not
                    // have been defined above (cccp's skip path).
                    let name = idents[rng.gen_range(0..idents.len())];
                    out.extend_from_slice(format!("#ifdef LIM_{name}\n").as_bytes());
                    out.extend_from_slice(format!("{name} = {name} + 1;\n").as_bytes());
                    out.extend_from_slice(b"#endif\n");
                } else {
                    out.extend_from_slice(b"/* generated line ");
                    out.extend_from_slice(li.to_string().as_bytes());
                    out.extend_from_slice(b" */\n");
                }
            }
            2..=4 => {
                write_stmt(
                    &mut out,
                    kws[rng.gen_range(0..kws.len())],
                    idents[rng.gen_range(0..idents.len())],
                    rng.gen_range(0..100u32),
                );
            }
            _ => {
                let a = idents[rng.gen_range(0..idents.len())];
                let b = idents[rng.gen_range(0..idents.len())];
                let op = ["+", "-", "*", "/", "<<", "&"][rng.gen_range(0..6usize)];
                out.extend_from_slice(
                    format!("{a} = {b} {op} {};\n", rng.gen_range(0..256)).as_bytes(),
                );
            }
        }
    }
    out
}

fn write_stmt(out: &mut Vec<u8>, kw: &str, id: &str, n: u32) {
    out.extend_from_slice(format!("{kw} ({id} < {n}) {{ {id}++; }}\n").as_bytes());
}

/// A pair of byte streams for cmp: equal with probability `p_same`,
/// otherwise differing at a random position.
pub fn cmp_pair(rng: &mut Rng, lines: usize, same: bool) -> (Vec<u8>, Vec<u8>) {
    let a = text(rng, lines);
    if same {
        return (a.clone(), a);
    }
    let mut b = a.clone();
    if b.is_empty() {
        b.push(b'x');
    } else {
        let pos = rng.gen_range(0..b.len());
        b[pos] = b[pos].wrapping_add(1).max(1);
        b.truncate(rng.gen_range(pos..=b.len().max(pos)));
        if b.len() == pos {
            b.push(b'!');
        }
    }
    (a, b)
}

/// A makefile-like dependency description for the `make` benchmark:
/// `T<id>: D<id> D<id>…` lines followed by a `stamps` section giving
/// each node a timestamp.
pub fn makefile(rng: &mut Rng, targets: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for t in 0..targets {
        out.extend_from_slice(format!("t{t}:").as_bytes());
        // Depend only on lower-numbered nodes → acyclic.
        let deps = rng.gen_range(0..=3.min(t));
        let mut used = Vec::new();
        for _ in 0..deps {
            let d = rng.gen_range(0..t.max(1));
            if !used.contains(&d) && d < t {
                out.extend_from_slice(format!(" t{d}").as_bytes());
                used.push(d);
            }
        }
        out.push(b'\n');
    }
    out.extend_from_slice(b"#stamps\n");
    for t in 0..targets {
        out.extend_from_slice(format!("t{t} {}\n", rng.gen_range(0..1000)).as_bytes());
    }
    out
}

/// A simple archive for the `tar` benchmark: records of
/// `name-length, name bytes, size (2 bytes LE), payload, checksum byte`.
pub fn archive(rng: &mut Rng, files: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for f in 0..files {
        let name = format!("file{f:03}.txt");
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
        let size = rng.gen_range(8..200usize);
        out.push((size & 0xff) as u8);
        out.push((size >> 8) as u8);
        let mut sum: u32 = 0;
        for _ in 0..size {
            let b = rng.gen_range(32u8..127);
            sum = sum.wrapping_add(u32::from(b));
            out.push(b);
        }
        out.push((sum & 0xff) as u8);
    }
    out.push(0); // terminator: zero-length name
    out
}

/// Arithmetic expressions (one per line) for yacc and eqn:
/// integers, `+ - * /`, parentheses.
pub fn expressions(rng: &mut Rng, count: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..count {
        gen_expr(rng, &mut out, 0);
        out.push(b'\n');
    }
    out
}

fn gen_expr(rng: &mut Rng, out: &mut Vec<u8>, depth: usize) {
    if depth > 4 || rng.gen_bool(0.35) {
        out.extend_from_slice(rng.gen_range(1..100i32).to_string().as_bytes());
        return;
    }
    if rng.gen_bool(0.2) {
        out.push(b'(');
        gen_expr(rng, out, depth + 1);
        out.push(b')');
        return;
    }
    gen_expr(rng, out, depth + 1);
    // Operator mix skewed like real arithmetic code: mostly `+`.
    let r = rng.gen_range(0..100);
    out.push(if r < 45 {
        b'+'
    } else if r < 65 {
        b'-'
    } else if r < 90 {
        b'*'
    } else {
        b'/'
    });
    gen_expr(rng, out, depth + 1);
}

/// Boolean cubes (lines over `0`, `1`, `-`) for espresso.
pub fn cubes(rng: &mut Rng, vars: usize, count: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..count {
        for _ in 0..vars {
            out.push(match rng.gen_range(0..4) {
                0 => b'0',
                1 | 2 => b'1',
                _ => b'-',
            });
        }
        out.push(b'\n');
    }
    out
}

/// grep patterns of varying selectivity (literal fragments of real
/// words, some with `.`/`*`/`^`).
pub fn grep_pattern(rng: &mut Rng) -> Vec<u8> {
    let base = WORDS[rng.gen_range(0..WORDS.len())].as_bytes();
    let mut pat = Vec::new();
    match rng.gen_range(0..4) {
        0 => pat.extend_from_slice(base),
        1 => {
            pat.push(b'^');
            pat.extend_from_slice(base);
        }
        2 => {
            pat.extend_from_slice(&base[..base.len().min(2)]);
            pat.push(b'.');
            if base.len() > 3 {
                pat.extend_from_slice(&base[3..]);
            }
        }
        _ => {
            pat.extend_from_slice(&base[..base.len().min(2)]);
            pat.push(b'*');
        }
    }
    pat
}

/// Pick a seed-dependent *active subset* of `population` ids (roughly
/// three quarters, never empty) plus a small hot set within it — the
/// skew that makes different seeds exercise different branch-site
/// populations in the synthetic server workloads.
fn active_and_hot(rng: &mut Rng, population: usize) -> (Vec<u8>, Vec<u8>) {
    let mut active: Vec<u8> = (0..population as u8)
        .filter(|_| !rng.gen_bool(0.25))
        .collect();
    if active.is_empty() {
        active.push(rng.gen_range(0..population as u64) as u8);
    }
    let hot: Vec<u8> = (0..8.min(active.len()))
        .map(|_| active[rng.gen_range(0..active.len())])
        .collect();
    (active, hot)
}

/// Megamorphic-dispatch request stream: `count` records of
/// `[type, payload]` bytes. Types are drawn from a seed-dependent
/// active subset of `handlers` with a hot-set skew (≈70% of requests
/// hit ~8 hot types).
pub fn dispatch_requests(rng: &mut Rng, count: usize, handlers: usize) -> Vec<u8> {
    let (active, hot) = active_and_hot(rng, handlers);
    let mut out = Vec::with_capacity(count * 2);
    for _ in 0..count {
        let t = if rng.gen_bool(0.7) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            active[rng.gen_range(0..active.len())]
        };
        out.push(t);
        out.push(rng.gen_range(0..256u64) as u8);
    }
    out
}

/// Server-routing request stream: `count` records of
/// `[method, route, payload]` bytes with a skewed method mix and the
/// same seed-dependent active/hot route subsetting as
/// [`dispatch_requests`].
pub fn route_requests(rng: &mut Rng, count: usize, routes: usize) -> Vec<u8> {
    let (active, hot) = active_and_hot(rng, routes);
    let mut out = Vec::with_capacity(count * 3);
    for _ in 0..count {
        // GET-heavy method mix: 0 = read, 1 = write, 2/3 = rare.
        let m = if rng.gen_bool(0.65) {
            0
        } else if rng.gen_bool(0.7) {
            1
        } else {
            rng.gen_range(2..4u64) as u8
        };
        let r = if rng.gen_bool(0.7) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            active[rng.gen_range(0..active.len())]
        };
        out.push(m);
        out.push(r);
        out.push(rng.gen_range(0..256u64) as u8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn scale_names_round_trip() {
        for scale in [Scale::Test, Scale::Small, Scale::Paper] {
            assert_eq!(scale.name().parse(), Ok(scale));
            assert!(Scale::NAMES.split('|').any(|n| n == scale.name()));
        }
        for bad in ["huge", "Test", "", " small"] {
            assert!(bad.parse::<Scale>().is_err(), "{bad}");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(text(&mut rng(7), 50), text(&mut rng(7), 50));
        assert_eq!(c_source(&mut rng(7), 50), c_source(&mut rng(7), 50));
        assert_eq!(makefile(&mut rng(7), 20), makefile(&mut rng(7), 20));
        assert_eq!(archive(&mut rng(7), 5), archive(&mut rng(7), 5));
        assert_eq!(expressions(&mut rng(7), 9), expressions(&mut rng(7), 9));
        assert_eq!(
            dispatch_requests(&mut rng(7), 64, 96),
            dispatch_requests(&mut rng(7), 64, 96)
        );
        assert_eq!(
            route_requests(&mut rng(7), 64, 96),
            route_requests(&mut rng(7), 64, 96)
        );
    }

    #[test]
    fn request_streams_have_seed_dependent_populations() {
        let types = |seed: u64| -> std::collections::BTreeSet<u8> {
            dispatch_requests(&mut rng(seed), 400, 96)
                .chunks(2)
                .map(|r| r[0])
                .collect()
        };
        assert_ne!(types(1), types(2));
        // Every type stays in range for the dispatch switch.
        assert!(types(1).iter().all(|&t| t < 96));
        let routes = |seed: u64| -> std::collections::BTreeSet<u8> {
            route_requests(&mut rng(seed), 400, 96)
                .chunks(3)
                .map(|r| r[1])
                .collect()
        };
        assert_ne!(routes(3), routes(4));
        assert!(route_requests(&mut rng(5), 100, 96)
            .chunks(3)
            .all(|r| r[0] < 4));
    }

    #[test]
    fn text_has_lines_and_words() {
        let t = text(&mut rng(1), 100);
        assert_eq!(t.iter().filter(|&&c| c == b'\n').count(), 100);
        assert!(t.contains(&b' '));
        assert!(t.iter().all(|&c| c == b'\n' || (32..127).contains(&c)));
    }

    #[test]
    fn cmp_pair_same_and_different() {
        let (a, b) = cmp_pair(&mut rng(2), 20, true);
        assert_eq!(a, b);
        let (a, b) = cmp_pair(&mut rng(3), 20, false);
        assert_ne!(a, b);
    }

    #[test]
    fn makefile_shape() {
        let m = makefile(&mut rng(4), 10);
        let s = String::from_utf8(m).unwrap();
        assert!(s.contains("t0:"));
        assert!(s.contains("#stamps"));
    }

    #[test]
    fn archive_is_parseable() {
        let a = archive(&mut rng(5), 3);
        // First record: name length then name.
        let n = a[0] as usize;
        assert_eq!(&a[1..1 + n], b"file000.txt");
        assert_eq!(*a.last().unwrap(), 0);
    }

    #[test]
    fn expressions_contain_operators() {
        let e = expressions(&mut rng(6), 50);
        let s = String::from_utf8(e).unwrap();
        assert!(s.contains('+') || s.contains('*'));
        assert!(s.lines().count() == 50);
    }

    #[test]
    fn cubes_alphabet() {
        let c = cubes(&mut rng(8), 8, 10);
        assert!(c
            .iter()
            .all(|&b| b == b'0' || b == b'1' || b == b'-' || b == b'\n'));
    }

    #[test]
    fn scale_units_are_ordered() {
        assert!(Scale::Test.units() < Scale::Small.units());
        assert!(Scale::Small.units() < Scale::Paper.units());
    }
}
