//! The generated data is pinned: `figure1_workload` must return the same
//! EMPLOYEE and PROJECT lists — every value, in the same order — for the
//! seeds and scales the benchmark and the tests' `benchmark_catalog` use.
//! A change to how the generator builds its rows must make the same rng
//! draws in the same order; this holds it to that.

use tqo_core::relation::Relation;
use tqo_core::value::Value;
use tqo_storage::WorkloadGenerator;

/// FNV-1a over the schema's rendering and a tagged encoding of every
/// value, row by row.
fn digest(relation: &Relation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(relation.schema().to_string().as_bytes());
    for t in relation.tuples() {
        for v in t.values() {
            match v {
                Value::Null => eat(&[0]),
                Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[2]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[3]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Bool(b) => eat(&[4, u8::from(*b)]),
                Value::Time(t) => {
                    eat(&[5]);
                    eat(&t.to_le_bytes());
                }
            }
        }
        eat(&[0xff]);
    }
    h
}

/// `(seed, scales, rows and digest of EMPLOYEE, rows and digest of
/// PROJECT)`: a fresh generator per entry, asked for each scale in turn
/// (the digests are of the last pair). `[6, 50]` is `plan_sensitive`'s
/// chain, whose second pair depends on how many draws the first made.
type Pinned = (u64, &'static [usize], (usize, u64), (usize, u64));

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    (7, &[1], (41, 8152044116050609900), (54, 6035064464291366158)),
    (7, &[2], (85, 13572276009109399626), (114, 12673733205244137735)),
    (7, &[3], (124, 10689236972335471667), (126, 14421327983214172889)),
    (7, &[4], (168, 10716527249582211887), (192, 16229392629703338646)),
    (7, &[6], (250, 7424898606676572750), (282, 17196706195839128782)),
    (7, &[25], (1055, 13512514542994836189), (1272, 733408779910971784)),
    (7, &[50], (2092, 846676697693100168), (2436, 4026519902303181712)),
    (7, &[100], (4180, 15445415659802583177), (4728, 18435800022592038132)),
    (7, &[500], (20945, 11795734938846881394), (23826, 7750000952069718585)),
    (7, &[6, 50], (2082, 10317134936720164496), (2352, 18118901646708070894)),
    (11, &[1], (42, 13975649801116719778), (42, 15203514023449480397)),
    (11, &[2], (84, 7184222356504296204), (108, 14841888372446274952)),
    (11, &[3], (125, 9352672231999776802), (144, 14311864609097516598)),
    (11, &[4], (167, 15785701075219778652), (210, 14291824661772591640)),
    (11, &[6], (253, 4038902253980411761), (258, 15161538194328162929)),
    (11, &[25], (1056, 11703124816257442530), (1182, 10504683939856690345)),
    (11, &[50], (2112, 12043150554372495165), (2412, 17725259277693799730)),
    (11, &[100], (4206, 3614325844855451931), (4788, 7576820910237018690)),
    (11, &[500], (20999, 5692856326009854831), (23940, 15752654445368953817)),
    (11, &[6, 50], (2096, 3703982822064863272), (2448, 13760553908348189875)),
];

/// The benchmark's scales and `benchmark_catalog`'s.
static SCALES: [usize; 9] = [1, 2, 3, 4, 6, 25, 50, 100, 500];

#[test]
fn figure1_workload_lists_are_pinned() {
    let mut runs: Vec<&'static [usize]> = SCALES.iter().map(std::slice::from_ref).collect();
    runs.push(&[6, 50]);
    let mut got = Vec::new();
    for seed in [7, 11] {
        for &scales in &runs {
            let mut generator = WorkloadGenerator::new(seed);
            let mut catalog = None;
            for &scale in scales {
                catalog = Some(generator.figure1_workload(scale).unwrap());
            }
            let catalog = catalog.expect("one scale at least");
            let of = |name: &str| {
                let r = catalog.get(name).unwrap().relation().clone();
                (r.len(), digest(&r))
            };
            got.push((seed, scales, of("EMPLOYEE"), of("PROJECT")));
        }
    }
    assert_eq!(got, PINNED);
}
