//! Determinism of the trace-scenario library: every generator is a pure
//! function of `(cfg, params, seed)` — byte-identical output for a fixed
//! seed no matter how many threads generate it, distinct output for
//! distinct seeds, and request contents invariant under the load dial
//! (only arrivals move). These are the preconditions `ext-overload` leans
//! on when it reuses one set of solo reference runs across 1×/3×/10×
//! load (same spirit as the batch-invariance gates).

use figlut_model::ModelConfig;
use figlut_serve::{
    flash_crowd_trace, synthetic_trace, FlashCrowdParams, Sampling, Scenario, Trace, TraceParams,
};
use proptest::prelude::*;

const LOADS: [f64; 4] = [0.5, 1.0, 3.0, 10.0];

fn gen(sc: Scenario, requests: usize, load: f64, seed: u64) -> Trace {
    sc.trace(&ModelConfig::tiny(), requests, load, seed)
}

/// The trace's full byte-level identity (Debug covers every field of
/// every request, including prompts, budgets, and sampling seeds).
fn bytes(t: &Trace) -> Vec<u8> {
    format!("{t:?}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A fixed seed yields byte-identical traces whether generated on the
    /// main thread or on any number of spawned threads concurrently.
    #[test]
    fn scenario_traces_are_thread_count_invariant(
        seed in any::<u64>(),
        requests in 1usize..=12,
        which in 0usize..4,
        load_idx in 0usize..LOADS.len(),
        threads in 1usize..=4,
    ) {
        let sc = Scenario::ALL[which];
        let load = LOADS[load_idx];
        let reference = bytes(&gen(sc, requests, load, seed));
        let handles: Vec<_> = (0..threads)
            .map(|_| std::thread::spawn(move || bytes(&gen(sc, requests, load, seed))))
            .collect();
        for h in handles {
            let got = h.join().expect("generator thread");
            prop_assert_eq!(&got, &reference, "{} diverged across threads", sc.name());
        }
    }

    /// Distinct seeds yield distinct traces, for every scenario.
    #[test]
    fn distinct_seeds_yield_distinct_traces(
        seed in any::<u64>(),
        requests in 1usize..=12,
        which in 0usize..4,
    ) {
        let sc = Scenario::ALL[which];
        let a = gen(sc, requests, 1.0, seed);
        let b = gen(sc, requests, 1.0, seed ^ 1);
        // Even a 1-request trace differs: the per-request sampling seed
        // mixes the top-level seed directly.
        prop_assert_ne!(a, b, "{} collided across seeds", sc.name());
    }

    /// The load dial rescales arrivals only: ids, prompts, budgets, and
    /// sampling seeds are identical at every load, and every generated
    /// trace validates against the model.
    #[test]
    fn load_dial_preserves_request_contents(
        seed in any::<u64>(),
        requests in 1usize..=12,
        which in 0usize..4,
    ) {
        let sc = Scenario::ALL[which];
        let cfg = ModelConfig::tiny();
        let strip = |t: &Trace| {
            t.requests
                .iter()
                .map(|r| (r.id, r.prompt.clone(), r.max_new, r.seed))
                .collect::<Vec<_>>()
        };
        let reference = gen(sc, requests, 1.0, seed);
        reference.validate(&cfg);
        for load in LOADS {
            let t = gen(sc, requests, load, seed);
            t.validate(&cfg);
            prop_assert_eq!(
                strip(&t),
                strip(&reference),
                "{} request contents moved at load {}",
                sc.name(),
                load
            );
        }
    }
}

/// FNV-1a 64 of a trace's `Debug` bytes.
fn digest(t: &Trace) -> u64 {
    bytes(t).iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every generator's output pinned to the byte: a change to the trace
/// code must reproduce these digests exactly (the committed CSVs and the
/// serving benchmarks are functions of these traces). A trace reads only
/// the model's `vocab` and `max_seq`, so both shapes share one table.
#[test]
fn trace_digests_are_pinned() {
    const SCENARIOS: [(Scenario, usize, f64, u64, u64); 12] = [
        (Scenario::Steady, 16, 0.6, 4242, 0xb2f1_d380_9afa_b4cc),
        (Scenario::Steady, 128, 0.1, 4242, 0xa2b7_de2a_8e8a_5ae1),
        (Scenario::Steady, 10, 1.0, 7, 0x47fe_3cfa_c770_ef26),
        (Scenario::Bursty, 16, 0.6, 4242, 0xc157_fd83_5469_461e),
        (Scenario::Bursty, 128, 0.1, 4242, 0x7643_8dee_6224_5592),
        (Scenario::Bursty, 10, 1.0, 7, 0x31da_01f3_ffbe_2c25),
        (Scenario::HeavyTail, 16, 0.6, 4242, 0xc12c_6446_1224_dd67),
        (Scenario::HeavyTail, 128, 0.1, 4242, 0xbff3_2343_e2e1_ed60),
        (Scenario::HeavyTail, 10, 1.0, 7, 0xceae_b912_2bde_d161),
        (Scenario::FlashCrowd, 16, 0.6, 4242, 0x4da9_03fc_c3e6_e0bc),
        (Scenario::FlashCrowd, 128, 0.1, 4242, 0x1cab_822e_d48a_03da),
        (Scenario::FlashCrowd, 10, 1.0, 7, 0x2048_6d24_fbf1_d473),
    ];
    for cfg in [ModelConfig::tiny(), ModelConfig::scaled(2, 48, 4)] {
        for (sc, requests, load, seed, want) in SCENARIOS {
            let got = digest(&sc.trace(&cfg, requests, load, seed));
            assert_eq!(
                got,
                want,
                "{} ({requests}, {load}, {seed}) on {cfg:?}: {got:#018x}",
                sc.name()
            );
        }
    }

    let cfg = ModelConfig::tiny();
    let light = TraceParams::light(6);
    // Mean 0 draws no gap value at all: the prompt draws shift up.
    let burst = TraceParams {
        mean_interarrival: 0.0,
        ..light
    };
    let crowd = FlashCrowdParams {
        requests: 9,
        mean_interarrival: 5.0,
        prefix_len: 7,
        tail_len: (0, 4),
        new_tokens: (2, 9),
        sampling: Sampling::Temperature(0.8),
    };
    for (what, got, want) in [
        (
            "light",
            synthetic_trace(&cfg, &light, 9),
            0xfb59_fea6_511a_4303,
        ),
        (
            "mean 0",
            synthetic_trace(&cfg, &burst, 9),
            0x97aa_d870_78bf_04b5,
        ),
        (
            "crowd",
            flash_crowd_trace(&cfg, &crowd, 13),
            0x859c_d22d_5149_6948,
        ),
    ] {
        let got = digest(&got);
        assert_eq!(got, want, "{what}: {got:#018x}");
    }
}
