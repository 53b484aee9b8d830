//! Bit pin of weight preparation: FNV-1a over `f64::to_bits` of what the
//! teacher draws and of what `quantize_model` → `to_packed` makes of it.
//!
//! The teacher is pinned whole — embedding, positions, every linear's
//! weights and bias — at `tiny()` (too few draws to open a crew) and at a
//! d-256 config whose draws open one at two or more threads, so the
//! digests must come out the same at every `FIGLUT_EXEC_THREADS`. The
//! quantize-and-pack chain is pinned through `unpack` (planes, scales and
//! offsets of every packed linear) and through `Backend::Exec` logits on a
//! fixed prompt, for RTN Q4 and ShiftAdd Q3. The values were recorded
//! before the teacher was drawn on a crew and before the preparation
//! pipeline stopped cloning the model; a change here is a change of
//! weights, not a refactor.

use figlut_gemm::EngineConfig;
use figlut_model::calibrate::{quantize_model, to_packed, Method};
use figlut_model::corpus::{generate, Corpus};
use figlut_model::transformer::LinearWeights;
use figlut_model::{Backend, ModelConfig, Transformer};

fn fnv1a(h: &mut u64, vals: impl IntoIterator<Item = f64>) {
    for v in vals {
        for byte in v.to_bits().to_le_bytes() {
            *h ^= byte as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A d-256 model: ≈ 3.3 M teacher draws, enough for a crew of four.
fn wide() -> ModelConfig {
    ModelConfig {
        vocab: 96,
        d_model: 256,
        layers: 2,
        heads: 4,
        ffn: 1024,
        max_seq: 40,
    }
}

/// Every parameter the teacher draws, in its draw order's grouping:
/// embedding, positions, then each linear's weights and bias.
fn teacher_digest(m: &Transformer) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, m.embed.as_slice().iter().copied());
    fnv1a(&mut h, m.pos.as_slice().iter().copied());
    for block in &m.blocks {
        for lin in block.linears() {
            let LinearWeights::Fp(w) = &lin.weights else {
                panic!("the teacher is FP");
            };
            fnv1a(&mut h, w.as_slice().iter().copied());
            fnv1a(&mut h, lin.bias.iter().copied());
        }
    }
    h
}

/// Every packed linear unpacked — each plane's signs, each plane's scale
/// and the offset of every group — and its bias.
fn packed_digest(m: &Transformer) -> u64 {
    let mut h = FNV_OFFSET;
    for block in &m.blocks {
        for lin in block.linears() {
            let LinearWeights::Packed(p, _) = &lin.weights else {
                panic!("to_packed packs every quantized linear");
            };
            let b = p.unpack();
            let (rows, cols) = b.shape();
            let gs = b.group_size();
            for (i, plane) in b.planes().iter().enumerate() {
                fnv1a(
                    &mut h,
                    (0..rows * cols).map(|e| plane.sign(e / cols, e % cols)),
                );
                let groups = (0..rows * b.groups()).map(|e| (e / b.groups(), e % b.groups()));
                fnv1a(&mut h, groups.map(|(r, g)| b.alpha(i, r, g * gs)));
            }
            if b.has_offset() {
                let groups = (0..rows * b.groups()).map(|e| (e / b.groups(), e % b.groups()));
                fnv1a(&mut h, groups.map(|(r, g)| b.offset(r, g * gs)));
            }
            fnv1a(&mut h, lin.bias.iter().copied());
        }
    }
    h
}

/// `[packed weights, Exec logits on a fixed prompt]` of `method` applied
/// to the teacher of `cfg` and `seed`.
fn prepared(cfg: ModelConfig, seed: u64, method: Method) -> [u64; 2] {
    let t = Transformer::teacher(cfg, seed);
    let calib = match method {
        Method::Rtn { .. } => Corpus {
            sequences: Vec::new(),
        },
        _ => generate(&t, 2, 10, 100),
    };
    let (q, _) = quantize_model(&t, &calib, method);
    let packed = to_packed(&q);
    let toks = [0usize, 7, 19, 3, 88, 42, 11, 5, 60, 2, 95];
    let logits = packed.logits(&toks, &Backend::Exec(EngineConfig::paper_default()));
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, logits.as_slice().iter().copied());
    [packed_digest(&packed), h]
}

#[test]
fn teacher_draws_are_pinned() {
    let tiny = teacher_digest(&Transformer::teacher(ModelConfig::tiny(), 21));
    let wide = teacher_digest(&Transformer::teacher(wide(), 102));
    assert_eq!([tiny, wide], [0xd857_82da_5d06_f6a7, 0x9b1f_8daf_8b57_93b9]);
}

#[test]
fn rtn_q4_quantize_and_pack_are_pinned() {
    let rtn = Method::Rtn { bits: 4 };
    let tiny = prepared(ModelConfig::tiny(), 21, rtn);
    let wide = prepared(wide(), 102, rtn);
    assert_eq!(tiny, [0x578c_e4c4_1948_f06c, 0x4ea7_337b_4adc_ac9b]);
    assert_eq!(wide, [0x6cab_5105_aaab_9dae, 0x899a_9674_57dc_0e82]);
}

#[test]
fn shiftadd_q3_quantize_and_pack_are_pinned() {
    let d = prepared(ModelConfig::tiny(), 21, Method::ShiftAdd { bits: 3 });
    assert_eq!(d, [0x6bf2_feb7_358e_8832, 0x111e_1eab_f814_06c7]);
}
