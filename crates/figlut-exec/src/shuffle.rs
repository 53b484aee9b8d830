//! The register FFLUT: one shuffle reads one 16-entry table for 32 weight
//! rows at once (paper Fig. 8/9's one table, k readers, with no bank to
//! conflict on — the fix for the GPU LUT-GEMM of Fig. 2).
//!
//! A *pass* sums one run of key bytes of a 32-row block
//! ([`crate::packed`]) over one batch column's nibble tables
//! ([`crate::lut::NibbleLuts`]): every key byte is two µ = 4 windows, and
//! every entry is stored biased by `2^(8P−1)` as `P` byte planes. Per
//! plane, each row's two looked-up bytes are summed into a `u16` lane by
//! one `vpmaddubsw` against ones, flushed into `i32` every [`FLUSH`] key
//! bytes, and recombined as `Σ 256^p·S_p` minus the bias of every entry
//! read: the exact integer sum of the run's entries.
//!
//! This module is the crate's only `unsafe`: the runtime AVX2 check, the
//! `#[target_feature]` entries of the table build and the sweep, the
//! `vpshufb` pass, and its loads and stores, each in its own block with
//! its own `SAFETY:` note. The baseline build reads with the portable
//! pass; the unit tests compare both passes' bits on every AVX2 host.

use crate::lut::{Block, Window};
use crate::packed::PackedBcq;
use crate::plan::{Stage, Tables};

/// Key bytes a `u16` plane sum absorbs before it is flushed: each key byte
/// adds two looked-up bytes (≤ 2·255) to every lane, and
/// 128·510 = 65 280 ≤ `u16::MAX` (the lanes wrap as `i16`, and are read
/// back as `u16`).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const FLUSH: usize = 128;

/// Rows of one block: one key byte per row fills a 256-bit register.
pub(crate) const BLOCK_ROWS: usize = 32;

/// A build of the kernel, a type only: its instruction set and its pass.
pub(crate) trait Isa {
    /// The sum of the run of key bytes `keys` (`[key byte][32 rows]`) over
    /// its `tables` (`[key byte][byte plane][low | high nibble]`, `2·planes`
    /// per key byte), in row order, four rows of eight.
    fn pass(keys: &[[u8; 32]], tables: &[[u8; 16]], planes: usize) -> [[i32; 8]; 4];
}

/// [`Tables::build`] in the AVX2 build on an AVX2 host (std caches the
/// check), else in the baseline build.
pub(crate) fn build(t: &mut Tables, stage: &Stage, wins: &[Window], blk: Block, tile: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host has AVX2, checked on the line above.
        return unsafe { avx2::build(t, stage, wins, blk, tile) };
    }
    t.build(stage, wins, blk, tile);
}

/// [`Tables::sweep`] in this host's build, as [`build`]. An entry takes the
/// sweep's references as its own arguments, which LLVM knows neither alias
/// nor dangle (read from a struct's fields, the sweep ran ×1.15 slower).
pub(crate) fn sweep(t: &mut Tables, stage: &Stage, w: &PackedBcq, r0: usize, panel: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host has AVX2, checked on the line above.
        return unsafe { avx2::sweep(t, stage, w, r0, panel) };
    }
    t.sweep::<Base>(stage, w, r0, panel);
}

/// The bias a run of `n` key bytes reads: two entries per key byte, each
/// stored plus `2^(8·planes − 1)` (mod 2³², as the sums are).
fn bias(planes: usize, n: usize) -> i32 {
    (2 * n as u32).wrapping_mul(1 << (8 * planes - 1)) as i32
}

/// The baseline build. Its pass recombines each entry's byte planes on the
/// read and sums in wrapping `i32` (exact: the true sum fits).
pub(crate) enum Base {}

impl Isa for Base {
    #[inline(always)]
    fn pass(keys: &[[u8; 32]], tables: &[[u8; 16]], planes: usize) -> [[i32; 8]; 4] {
        let mut out = [[0i32; 8]; 4];
        for (k, t) in keys.iter().zip(tables.chunks_exact(2 * planes)) {
            for (r, o) in out.as_flattened_mut().iter_mut().enumerate() {
                let key = usize::from(k[r]);
                for (p, halves) in t.chunks_exact(2).enumerate() {
                    let e = i32::from(halves[0][key & 15]) + i32::from(halves[1][key >> 4]);
                    *o = o.wrapping_add(e.wrapping_shl(8 * p as u32));
                }
            }
        }
        let bias = bias(planes, keys.len());
        out.map(|q| q.map(|o| o.wrapping_sub(bias)))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Isa, FLUSH};
    use crate::lut::{Block, Window};
    use crate::packed::PackedBcq;
    use crate::plan::{Stage, Tables};
    use std::arch::x86_64::*;

    /// The AVX2 build, named only by this module's entries.
    enum Avx2 {}

    impl Isa for Avx2 {
        #[inline(always)]
        fn pass(keys: &[[u8; 32]], tables: &[[u8; 16]], planes: usize) -> [[i32; 8]; 4] {
            // SAFETY: only the entries below, run on an AVX2 host, run code
            // built for `Avx2`.
            unsafe { pass(keys, tables, planes) }
        }
    }

    /// [`Tables::build`] compiled for AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn build(t: &mut Tables, stage: &Stage, wins: &[Window], blk: Block, tile: usize) {
        t.build(stage, wins, blk, tile);
    }

    /// [`Tables::sweep`] compiled for AVX2, reading with the `vpshufb` pass.
    #[target_feature(enable = "avx2")]
    pub(super) fn sweep(
        t: &mut Tables,
        stage: &Stage,
        w: &PackedBcq,
        r0: usize,
        panel: &mut [f64],
    ) {
        t.sweep::<Avx2>(stage, w, r0, panel);
    }

    /// [`Isa::pass`] with `vpshufb`, monomorphized on the plane count.
    #[target_feature(enable = "avx2")]
    pub(super) fn pass(keys: &[[u8; 32]], tables: &[[u8; 16]], planes: usize) -> [[i32; 8]; 4] {
        match planes {
            1 => planes_pass::<1>(keys, tables),
            2 => planes_pass::<2>(keys, tables),
            3 => planes_pass::<3>(keys, tables),
            _ => planes_pass::<4>(keys, tables),
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn planes_pass<const P: usize>(keys: &[[u8; 32]], tables: &[[u8; 16]]) -> [[i32; 8]; 4] {
        let nibble = _mm256_set1_epi8(0x0f);
        let ones = _mm256_set1_epi8(1);
        // Rows 0–7, 8–15, 16–23, 24–31.
        let mut acc = [_mm256_setzero_si256(); 4];
        for (keys, tables) in keys.chunks(FLUSH).zip(tables.chunks(FLUSH * 2 * P)) {
            // Per plane, rows 0–7 and 16–23 (`unpacklo` keeps 128-bit
            // lanes), then rows 8–15 and 24–31.
            let mut sums = [[_mm256_setzero_si256(); 2]; P];
            for (k, t) in keys.iter().zip(tables.chunks_exact(2 * P)) {
                let k = load(k);
                let lo = _mm256_and_si256(k, nibble);
                let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(k), nibble);
                for (p, s) in sums.iter_mut().enumerate() {
                    let a = _mm256_shuffle_epi8(broadcast(&t[2 * p]), lo);
                    let b = _mm256_shuffle_epi8(broadcast(&t[2 * p + 1]), hi);
                    let pairs = [_mm256_unpacklo_epi8(a, b), _mm256_unpackhi_epi8(a, b)];
                    for (s, x) in s.iter_mut().zip(pairs) {
                        *s = _mm256_add_epi16(*s, _mm256_maddubs_epi16(x, ones));
                    }
                }
            }
            for (p, [s0, s1]) in sums.into_iter().enumerate() {
                let shift = _mm_cvtsi32_si128(8 * p as i32);
                let (lo, hi) = (_mm256_castsi256_si128, _mm256_extracti128_si256::<1>);
                for (a, h) in acc.iter_mut().zip([lo(s0), lo(s1), hi(s0), hi(s1)]) {
                    *a = _mm256_add_epi32(*a, _mm256_sll_epi32(_mm256_cvtepu16_epi32(h), shift));
                }
            }
        }
        let bias = _mm256_set1_epi32(super::bias(P, keys.len()));
        acc.map(|a| store(_mm256_sub_epi32(a, bias)))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(k: &[u8; 32]) -> __m256i {
        // SAFETY: `k` is 32 readable bytes; `loadu` takes any alignment.
        unsafe { _mm256_loadu_si256(k.as_ptr().cast()) }
    }

    /// A 16-byte table in both 128-bit lanes (`vpshufb` reads per lane).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn broadcast(t: &[u8; 16]) -> __m256i {
        // SAFETY: `t` is 16 readable bytes; `loadu` takes any alignment.
        _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(t.as_ptr().cast()) })
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn store(v: __m256i) -> [i32; 8] {
        let mut out = [0i32; 8];
        // SAFETY: `out` is 32 writable bytes; `storeu` takes any alignment.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedBcq;
    use figlut_num::Mat;
    use figlut_quant::bcq::{BcqParams, BcqWeight};

    /// A xorshift stream of bytes.
    fn bytes(seed: u64) -> impl FnMut() -> u8 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        }
    }

    /// The definition: every entry recombined and unbiased on its own.
    fn reference(keys: &[[u8; 32]], tables: &[[u8; 16]], planes: usize) -> [[i32; 8]; 4] {
        let mut out = [[0i64; 8]; 4];
        let bias = 1i64 << (8 * planes - 1);
        let entry = |t: &[[u8; 16]], h: usize, k: usize| -> i64 {
            let e = (0..planes)
                .map(|p| i64::from(t[2 * p + h][k]) << (8 * p))
                .sum::<i64>();
            e - bias
        };
        for (k, t) in keys.iter().zip(tables.chunks_exact(2 * planes)) {
            for (o, &key) in out.as_flattened_mut().iter_mut().zip(k) {
                let key = usize::from(key);
                *o += entry(t, 0, key & 15) + entry(t, 1, key >> 4);
            }
        }
        out.map(|q| q.map(|o| o as i32))
    }

    fn check(keys: &[[u8; 32]], tables: &[[u8; 16]], planes: usize, what: &str) {
        let want = reference(keys, tables, planes);
        assert_eq!(Base::pass(keys, tables, planes), want, "portable: {what}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the host has AVX2, checked on the line above.
            let got = unsafe { avx2::pass(keys, tables, planes) };
            assert_eq!(got, want, "vpshufb: {what}");
        }
    }

    #[test]
    fn avx2_and_portable_passes_agree_bit_for_bit() {
        // Random keys and tables at every plane count, on both sides of
        // the 128-key-byte flush and across two of them; all-0xFF tables
        // put every u16 lane at its flush limit, so a late flush wraps.
        if cfg!(target_arch = "x86_64") && !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2 on this host: only the portable pass runs");
        }
        for planes in 1..=4 {
            for n in [1usize, 2, 17, 127, 128, 129, 255, 256, 257, 300] {
                let mut next = bytes((planes * 1000 + n) as u64);
                let keys: Vec<[u8; 32]> = (0..n).map(|_| [(); 32].map(|_| next())).collect();
                let random: Vec<[u8; 16]> = (0..2 * planes * n)
                    .map(|_| [(); 16].map(|_| next()))
                    .collect();
                check(&keys, &random, planes, &format!("random P={planes} n={n}"));
                let full = vec![[0xff; 16]; 2 * planes * n];
                check(&keys, &full, planes, &format!("0xff P={planes} n={n}"));
            }
        }
    }

    #[test]
    fn passes_agree_on_packed_keys_with_a_ragged_last_block() {
        // 45 rows: the second block holds 13 rows and 19 zero-key padding
        // rows. Each block's keys straight from the packed layout, over
        // random tables at every plane count.
        let w = Mat::from_fn(45, 256, |r, c| ((r * 256 + c) as f64 * 0.37).sin());
        let p = PackedBcq::pack(&BcqWeight::quantize(&w, BcqParams::per_row(2)));
        for planes in 1..=4 {
            for b in 0..2 {
                for i in 0..2 {
                    let keys = p.block_keys(0, b, i);
                    let mut next = bytes((planes * 10 + b) as u64);
                    let tables: Vec<[u8; 16]> = (0..2 * planes * keys.len())
                        .map(|_| [(); 16].map(|_| next()))
                        .collect();
                    check(
                        keys,
                        &tables,
                        planes,
                        &format!("block {b} plane {i} P={planes}"),
                    );
                    if b == 1 {
                        assert!(keys.iter().all(|k| (13..32).all(|r| k[r] == 0)));
                    }
                }
            }
        }
    }
}
