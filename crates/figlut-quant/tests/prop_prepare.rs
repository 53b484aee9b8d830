//! Exactness of weight preparation: `rtn`, `UniformWeight::nearest_code`
//! and `BcqWeight::from_uniform` against test-only copies of their scalar
//! definitions, compared bit for bit (`to_bits` of every scale, base, α and
//! offset; every code; every plane word) on inputs that mix ±0, NaN, ±∞,
//! subnormals, constant groups and exact rounding ties.

use figlut_num::Mat;
use figlut_quant::bcq::BcqWeight;
use figlut_quant::uniform::{empty_with_grid, rtn, RtnParams, UniformWeight};
use figlut_quant::BitMatrix;
use proptest::prelude::*;

/// The scalar RTN definition: codes, then per-group scale and base.
struct Rtn {
    codes: Vec<u8>,
    scale: Vec<f64>,
    base: Vec<f64>,
}

/// The scalar `rtn` loop, verbatim apart from returning plain vectors.
fn rtn_oracle(w: &Mat<f64>, params: RtnParams) -> Rtn {
    let (rows, cols) = w.shape();
    let group_size = if params.group_size == 0 {
        cols
    } else {
        params.group_size
    };
    let groups = cols / group_size;
    let levels = (1u32 << params.bits) - 1;
    let mut scale = vec![0.0; rows * groups];
    let mut base = vec![0.0; rows * groups];
    let mut codes = vec![0u8; rows * cols];
    for r in 0..rows {
        for g in 0..groups {
            let slice = &w.row(r)[g * group_size..(g + 1) * group_size];
            let (s, b) = if params.symmetric {
                let absmax = slice.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                let s = if absmax == 0.0 {
                    0.0
                } else {
                    2.0 * absmax / levels as f64
                };
                (s, -absmax)
            } else {
                let mn = slice.iter().cloned().fold(f64::INFINITY, f64::min);
                let mx = slice.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let s = if mx > mn {
                    (mx - mn) / levels as f64
                } else {
                    0.0
                };
                (s, mn)
            };
            scale[r * groups + g] = s;
            base[r * groups + g] = b;
            for (j, &x) in slice.iter().enumerate() {
                let code = if s == 0.0 {
                    0
                } else {
                    ((x - b) / s).round().clamp(0.0, levels as f64) as u8
                };
                codes[r * cols + g * group_size + j] = code;
            }
        }
    }
    Rtn { codes, scale, base }
}

/// The scalar `nearest_code`.
fn nearest_code_oracle(u: &UniformWeight, r: usize, c: usize, x: f64) -> u8 {
    let s = u.scale(r, c);
    let b = u.base(r, c);
    let max = (1u32 << u.bits()) - 1;
    if s == 0.0 {
        return 0;
    }
    let v = ((x - b) / s).round();
    v.clamp(0.0, max as f64) as u8
}

/// The scalar Eq. 3 conversion: one plane bit per element, then α and z.
struct Bcq {
    planes: Vec<BitMatrix>,
    alpha: Vec<Mat<f64>>,
    offset: Mat<f64>,
}

/// The scalar `from_uniform`, verbatim apart from returning its parts.
fn from_uniform_oracle(u: &UniformWeight) -> Bcq {
    let (rows, cols) = u.shape();
    let q = u.bits();
    let gs = u.group_size();
    let groups = cols / gs;
    let planes: Vec<BitMatrix> = (0..q)
        .map(|i| BitMatrix::from_fn(rows, cols, |r, c| (u.code(r, c) >> i) & 1 == 1))
        .collect();
    let alpha: Vec<Mat<f64>> = (0..q)
        .map(|i| {
            Mat::from_fn(rows, groups, |r, g| {
                u.scale(r, g * gs) * (1u64 << i) as f64 / 2.0
            })
        })
        .collect();
    let levels = ((1u64 << q) - 1) as f64;
    let offset = Mat::from_fn(rows, groups, |r, g| {
        u.scale(r, g * gs) * levels / 2.0 + u.base(r, g * gs)
    });
    Bcq {
        planes,
        alpha,
        offset,
    }
}

/// Uniform in `[-1, 1)` from the top bits of `h`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// One value from a mixture of the IEEE corner cases and ordinary weights.
fn special(h: u64) -> f64 {
    let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
    match (h >> 1) % 12 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => sign * f64::from_bits((h >> 12) | 1), // subnormal
        6 => sign * f64::MIN_POSITIVE,
        7 => sign * f64::MAX * (0.5 + unit(h).abs() / 2.0),
        _ => 10.0 * unit(h),
    }
}

/// How one group's values are drawn.
fn group_values(mode: u8, seeds: &[u64], bits: u32, symmetric: bool) -> Vec<f64> {
    let levels = ((1u32 << bits) - 1) as f64;
    let h0 = seeds[0];
    match mode {
        // Every corner case, freely mixed.
        0 => seeds.iter().map(|&h| special(h)).collect(),
        // Ordinary weights with signed zeros and NaNs among them.
        1 => seeds
            .iter()
            .map(|&h| match h % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                _ => unit(h),
            })
            .collect(),
        // One-signed weights whose min (or max) is a signed zero.
        2 => {
            let sign = if h0 & 1 == 0 { 1.0 } else { -1.0 };
            seeds
                .iter()
                .map(|&h| match h % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => sign * unit(h).abs(),
                })
                .collect()
        }
        // A constant group.
        3 => vec![special(h0); seeds.len()],
        // Subnormals only: a grid far below the normal range.
        4 => seeds
            .iter()
            .map(|&h| f64::from_bits(h >> 13) * if h & 1 == 0 { 1.0 } else { -1.0 })
            .collect(),
        // Exact ties `b + (k + ½)·s`: a power-of-two step, so every
        // half-grid point and its quotient are exact. The first value pins
        // the grid's base (and the last, for an asymmetric grid, its top).
        _ => {
            let step = 2f64.powi((h0 % 9) as i32 - 4);
            let base = if symmetric {
                -levels * step / 2.0
            } else {
                ((h0 >> 8) % 17) as f64 * step - 8.0
            };
            let n = seeds.len();
            (0..n)
                .map(|j| match j {
                    0 => base,
                    _ if j == n - 1 && !symmetric => base + levels * step,
                    _ if seeds[j].is_multiple_of(11) => f64::NAN,
                    _ => base + (seeds[j] % (2 * levels as u64 + 1)) as f64 / 2.0 * step,
                })
                .collect()
        }
    }
}

/// Group sizes the suite covers (`0` = the whole row).
const GROUP_SIZES: [usize; 5] = [1, 3, 64, 128, 0];

/// `(rows, cols, group_size)`, one draw mode per group, and one seed per
/// weight.
type Shape = (usize, usize, usize, Vec<u8>, Vec<u64>);

fn shapes() -> impl Strategy<Value = Shape> {
    (1usize..=3, 0..GROUP_SIZES.len(), 1usize..=3, 1usize..=200).prop_flat_map(
        |(rows, gi, groups, row_cols)| {
            let gs = GROUP_SIZES[gi];
            let (cols, groups) = if gs == 0 {
                (row_cols, 1)
            } else {
                (gs * groups, groups)
            };
            (
                prop::collection::vec(0u8..6, rows * groups),
                prop::collection::vec(any::<u64>(), rows * cols),
            )
                .prop_map(move |(modes, seeds)| (rows, cols, gs, modes, seeds))
        },
    )
}

fn build((rows, cols, gs, modes, seeds): &Shape, bits: u32, symmetric: bool) -> Mat<f64> {
    let gs = if *gs == 0 { *cols } else { *gs };
    let groups = cols / gs;
    let mut v = Vec::with_capacity(rows * cols);
    for r in 0..*rows {
        for g in 0..groups {
            let at = r * cols + g * gs;
            v.extend(group_values(
                modes[r * groups + g],
                &seeds[at..at + gs],
                bits,
                symmetric,
            ));
        }
    }
    Mat::from_vec(*rows, *cols, v)
}

/// Compare `from_uniform(u)` with the oracle, bit for bit.
fn check_bcq(u: &UniformWeight) -> Result<(), TestCaseError> {
    let (rows, cols) = u.shape();
    let got = BcqWeight::from_uniform(u);
    let want = from_uniform_oracle(u);
    prop_assert_eq!(got.bits() as usize, want.planes.len());
    for (i, plane) in want.planes.iter().enumerate() {
        for r in 0..rows {
            prop_assert_eq!(
                got.plane(i).row_words(r),
                plane.row_words(r),
                "plane {} row {}",
                i,
                r
            );
        }
    }
    for r in 0..rows {
        for g in 0..cols / u.group_size() {
            let c = g * u.group_size();
            for (i, a) in want.alpha.iter().enumerate() {
                prop_assert_eq!(
                    got.alpha(i, r, c).to_bits(),
                    a[(r, g)].to_bits(),
                    "α{} ({}, {})",
                    i,
                    r,
                    g
                );
            }
            prop_assert_eq!(
                got.offset(r, c).to_bits(),
                want.offset[(r, g)].to_bits(),
                "z ({}, {})",
                r,
                g
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rtn_and_eq3_match_the_scalar_definitions(
        bits in 1u32..=8,
        symmetric in any::<bool>(),
        shape in shapes(),
    ) {
        let w = build(&shape, bits, symmetric);
        let params = RtnParams { bits, group_size: shape.2, symmetric };
        let u = rtn(&w, params);
        let want = rtn_oracle(&w, params);
        let (rows, cols) = w.shape();
        let gs = u.group_size();
        for r in 0..rows {
            for c in 0..cols {
                let at = r * cols + c;
                let g = r * (cols / gs) + c / gs;
                prop_assert_eq!(u.code(r, c), want.codes[at], "code ({}, {}) of {:?}", r, c, w[(r, c)]);
                prop_assert_eq!(u.scale(r, c).to_bits(), want.scale[g].to_bits(), "scale ({}, {})", r, c);
                prop_assert_eq!(u.base(r, c).to_bits(), want.base[g].to_bits(), "base ({}, {})", r, c);
                let x = w[(r, c)];
                prop_assert_eq!(u.nearest_code(r, c, x), nearest_code_oracle(&u, r, c, x));
            }
        }
        check_bcq(&u)?;
    }

    #[test]
    fn eq3_matches_on_arbitrary_codes_and_grids(
        bits in 1u32..=8,
        rows in 1usize..=4,
        gs in 1usize..=80,
        groups in 1usize..=3,
        seeds in prop::collection::vec(any::<u64>(), 4 * 80 * 3),
    ) {
        // Ragged widths, codes anywhere in range, and grids GPTQ or AWQ
        // could have set (any finite or special scale and base).
        let cols = gs * groups;
        let scale = Mat::from_fn(rows, groups, |r, g| special(seeds[r * groups + g].rotate_left(7)));
        let base = Mat::from_fn(rows, groups, |r, g| special(seeds[r * groups + g].rotate_left(29)));
        let mut u = empty_with_grid(rows, cols, bits, gs, scale, base);
        for r in 0..rows {
            for c in 0..cols {
                u.set_code(r, c, (seeds[r * cols + c] % (1 << bits)) as u8);
            }
        }
        check_bcq(&u)?;
        for r in 0..rows {
            for c in 0..cols {
                let x = special(seeds[r * cols + c].rotate_left(43));
                prop_assert_eq!(u.nearest_code(r, c, x), nearest_code_oracle(&u, r, c, x));
            }
        }
    }
}
