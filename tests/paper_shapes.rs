//! Cross-crate integration tests asserting the *shapes* of the paper's
//! results: who wins, by roughly what factor, and where crossovers fall.
//! Absolute seconds are calibration-dependent; these relations are not.

use dvns::desim::SimDuration;
use dvns::lu_app::{measure_lu, predict_lu, DataMode, LuConfig};
use dvns::netmodel::NetParams;
use dvns::perfmodel::{LuCost, PlatformProfile};
use dvns::sim::{SimConfig, TimingMode};
use dvns::testbed::TestbedParams;

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        ..SimConfig::default()
    }
}

fn lu(r: usize, nodes: u32) -> LuConfig {
    let mut cfg = LuConfig::new(2592, r, nodes);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    cfg
}

fn predicted_secs(cfg: &LuConfig) -> f64 {
    predict_lu(cfg, NetParams::fast_ethernet(), &simcfg())
        .unwrap()
        .factorization_time
        .as_secs_f64()
}

#[test]
fn serial_model_matches_paper_anchor() {
    let cost = LuCost::new(PlatformProfile::ultrasparc_ii_440());
    let t = cost.serial_lu(2592, 216).as_secs_f64();
    assert!(
        (170.0..205.0).contains(&t),
        "serial model {t:.1}s vs paper 185.1s"
    );
}

#[test]
fn prediction_tracks_testbed_measurement() {
    // The headline validation: simulator vs ground truth within a few %.
    let cfg = lu(216, 8);
    let p = predicted_secs(&cfg);
    let m = measure_lu(&cfg, TestbedParams::sun_cluster(), 42, &simcfg())
        .unwrap()
        .factorization_time
        .as_secs_f64();
    let err = ((p - m) / m).abs();
    assert!(
        err < 0.12,
        "prediction error {:.1}% (paper: >95% within 12%)",
        err * 100.0
    );
}

#[test]
fn granularity_dominates_variant_tweaks() {
    // Figure 8's lesson: changing r from 648 to 216 brings far more than
    // pipelining/flow-control at r=648.
    let coarse = predicted_secs(&lu(648, 4));
    let mid = predicted_secs(&lu(216, 4));
    assert!(
        coarse / mid > 2.0,
        "granularity gain only {:.2}x (paper ≈ 3.4x)",
        coarse / mid
    );
    let mut p_fc = lu(648, 4);
    p_fc.pipelined = true;
    p_fc.flow_control = Some(8);
    let tweaked = predicted_secs(&p_fc);
    let tweak_gain = coarse / tweaked;
    assert!(
        tweak_gain < 1.4,
        "variant tweaks at r=648 gained {tweak_gain:.2}x, expected modest"
    );
}

#[test]
fn granularity_sweep_has_interior_optimum() {
    // Figure 8/10: the best block size lies strictly between the extremes.
    let times: Vec<(usize, f64)> = [648, 324, 216, 162, 108]
        .into_iter()
        .map(|r| (r, predicted_secs(&lu(r, 4))))
        .collect();
    let best = times
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nonempty");
    assert!(
        best.0 == 216 || best.0 == 162,
        "optimum at r={} (paper: 162)",
        best.0
    );
    // Both extremes are worse than the optimum.
    assert!(times[0].1 > best.1 * 1.2);
    assert!(times[4].1 > best.1 * 1.05);
}

#[test]
fn pipelining_matters_more_on_eight_nodes() {
    // Figure 9 vs Figure 10: the pipelining + flow-control improvements
    // become more significant with more nodes (at granularities fine
    // enough to feed the pipeline).
    let gain = |r: usize, nodes: u32, fc: Option<usize>| {
        let basic = predicted_secs(&lu(r, nodes));
        let mut p = lu(r, nodes);
        p.pipelined = true;
        p.flow_control = fc;
        basic / predicted_secs(&p)
    };
    let pfc4 = gain(162, 4, Some(8));
    let pfc8 = gain(162, 8, Some(8));
    assert!(
        pfc8 > pfc4,
        "P+FC gain on 8 nodes ({pfc8:.3}) must exceed 4 nodes ({pfc4:.3})"
    );
    let p4 = gain(108, 4, None);
    let p8 = gain(108, 8, None);
    assert!(
        p8 > p4,
        "P gain at r=108 on 8 nodes ({p8:.3}) vs 4 ({p4:.3})"
    );
    assert!(pfc8 > 1.3, "P+FC must substantially help on 8 nodes");
}

#[test]
fn flow_control_improves_pipelined_graph_on_eight_nodes() {
    let mut p = lu(162, 8);
    p.pipelined = true;
    let t_p = predicted_secs(&p);
    let mut pfc = p.clone();
    pfc.flow_control = Some(8);
    let t_pfc = predicted_secs(&pfc);
    assert!(
        t_pfc < t_p,
        "P+FC ({t_pfc:.1}s) must beat P ({t_p:.1}s) — paper Figure 10"
    );
}

#[test]
fn parallel_submul_hurts_balanced_but_helps_coarse() {
    // Figure 9: PM slows the well-balanced r=324 case; Figure 8: it helps
    // the imbalanced r=648 one.
    let base324 = predicted_secs(&lu(324, 4));
    let mut pm324 = lu(324, 4);
    pm324.parallel_mul = Some(162);
    assert!(
        predicted_secs(&pm324) > base324,
        "PM must slow down the balanced r=324 case"
    );

    let base648 = predicted_secs(&lu(648, 4));
    let mut pm648 = lu(648, 4);
    pm648.parallel_mul = Some(324);
    assert!(
        predicted_secs(&pm648) < base648,
        "PM must improve the imbalanced r=648 case"
    );
}

#[test]
fn dynamic_efficiency_decays_and_four_nodes_beat_eight() {
    // Figure 11: efficiency decreases over iterations; 4 nodes are ~1.5x
    // more efficient at the start and ~2x by iteration 6.
    let mut c4 = lu(324, 4);
    c4.workers = 8;
    let mut c8 = lu(324, 8);
    c8.workers = 8;
    let r4 = predict_lu(&c4, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let r8 = predict_lu(&c8, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let e4 = dvns::cluster::profile_from_report(&r4.report).points;
    let e8 = dvns::cluster::profile_from_report(&r8.report).points;
    assert_eq!(e4.len(), 8);
    assert_eq!(e8.len(), 8);
    // Decay: first iteration clearly more efficient than iteration 7.
    assert!(
        e8[0].efficiency > e8[6].efficiency * 1.5,
        "efficiency must decay over iterations"
    );
    // 4-node runs are more efficient throughout.
    let ratio_start = e4[0].efficiency / e8[0].efficiency;
    let ratio_it6 = e4[5].efficiency / e8[5].efficiency;
    assert!(
        (1.3..2.2).contains(&ratio_start),
        "iteration-1 efficiency ratio {ratio_start:.2} (paper 60.2/37.6 ≈ 1.6)"
    );
    assert!(
        ratio_it6 > 1.7,
        "iteration-6 efficiency ratio {ratio_it6:.2} (paper ≈ 2)"
    );
}

#[test]
fn thread_removal_lands_between_static_allocations() {
    // Figure 12: kill-4-after-iteration-1 costs little over the full 8-node
    // run while approaching the 4-node allocation's footprint.
    let mut c4 = lu(324, 4);
    c4.workers = 8;
    let mut c8 = lu(324, 8);
    c8.workers = 8;
    let mut kill = c8.clone();
    kill.removal = vec![(1, 4)];

    let t4 = predicted_secs(&c4);
    let t8 = predicted_secs(&c8);
    let tk = predicted_secs(&kill);
    assert!(t8 < tk, "removal cannot beat the full allocation");
    assert!(
        tk < t4 * 1.02,
        "removal run ({tk:.1}s) must not exceed the 4-node run ({t4:.1}s)"
    );
    // The cost of freeing half the machine for ~75% of the runtime stays
    // below 20% (the paper's Figure 12 band).
    assert!(
        tk / t8 < 1.20,
        "kill-4-after-1 costs {:.0}% over static 8 nodes",
        (tk / t8 - 1.0) * 100.0
    );
}

#[test]
fn later_removal_costs_less() {
    let mut base = lu(324, 8);
    base.workers = 8;
    let t8 = predicted_secs(&base);
    let mut early = base.clone();
    early.removal = vec![(1, 4)];
    let mut late = base.clone();
    late.removal = vec![(4, 4)];
    let te = predicted_secs(&early);
    let tl = predicted_secs(&late);
    assert!(
        tl < te,
        "killing after iteration 4 ({tl:.1}s) must cost less than after 1 ({te:.1}s)"
    );
    assert!(
        tl / t8 < 1.08,
        "late removal is nearly free (paper Figure 12)"
    );
}

#[test]
fn faster_network_helps_until_compute_bound() {
    let cfg = lu(162, 8);
    let fast_eth = predicted_secs(&cfg);
    let gig = predict_lu(&cfg, NetParams::gigabit_ethernet(), &simcfg())
        .unwrap()
        .factorization_time
        .as_secs_f64();
    let ideal = predict_lu(&cfg, NetParams::ideal(), &simcfg())
        .unwrap()
        .factorization_time
        .as_secs_f64();
    assert!(gig < fast_eth, "gigabit must beat fast ethernet");
    assert!(ideal <= gig, "free network is a lower bound");
    assert!(
        (gig - ideal) / ideal < 0.25,
        "at gigabit the run should be nearly compute bound"
    );
}

#[test]
fn flow_control_bounds_queues_and_window_has_an_optimum() {
    // Paper §2/Figure 6: flow control "prevents split and stream operations
    // from filling the data object queue of the destination threads" and
    // improves interleaving — but an over-tight window serializes.
    let mut nofc = lu(162, 8);
    nofc.pipelined = true;
    let mut fc8 = nofc.clone();
    fc8.flow_control = Some(8);
    let mut fc2 = nofc.clone();
    fc2.flow_control = Some(2);

    let r_nofc = predict_lu(&nofc, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let r_fc8 = predict_lu(&fc8, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let r_fc2 = predict_lu(&fc2, NetParams::fast_ethernet(), &simcfg()).unwrap();

    assert!(
        r_fc8.report.max_queue_len < r_nofc.report.max_queue_len,
        "flow control must shrink the worst queue: {} vs {}",
        r_fc8.report.max_queue_len,
        r_nofc.report.max_queue_len
    );
    let t_nofc = r_nofc.factorization_time.as_secs_f64();
    let t_fc8 = r_fc8.factorization_time.as_secs_f64();
    let t_fc2 = r_fc2.factorization_time.as_secs_f64();
    assert!(t_fc8 < t_nofc, "a reasonable window improves pipelining");
    assert!(t_fc2 > t_nofc, "an over-tight window serializes the stream");
}

#[test]
fn prediction_errors_stay_within_the_papers_bound() {
    // Figure 13 as a gate: the registered `fig13-errors` scenario at smoke
    // size (whole runs of every figure's configurations, the stencil, and
    // per-iteration times of the removal study). The floor is the paper's
    // own claim — more than 95 % of predictions within ±12 % — and the
    // mean-|error| ceiling is the smoke run's 1.54 % with headroom, so a
    // model change that degrades accuracy fails here instead of silently
    // re-committing the full-size CSV.
    use dvns::workload::{find_scenario, ScenarioCtx, DEFAULT_SEED};
    let specs = dps_bench::figure_scenarios();
    let spec = find_scenario(&specs, "fig13-errors").expect("registered");
    let rows = spec.run_serial(&ScenarioCtx::new(true, DEFAULT_SEED));
    type Fields = [(&'static str, f64)];
    let field = |fields: &Fields, key: &str| fields.iter().find(|(k, _)| *k == key).unwrap().1;
    let total = |of: &dyn Fn(&Fields) -> f64| rows.iter().map(|(_, f)| of(f)).sum::<f64>();
    let samples = total(&|f| field(f, "samples"));
    assert!(samples >= 30.0, "only {samples} samples at smoke size");
    let within_12 = total(&|f| field(f, "within_12")) / samples;
    assert!(
        within_12 >= 0.95,
        "{:.1}% of predictions within ±12% (paper: >95%)",
        within_12 * 100.0
    );
    let mean_abs = total(&|f| field(f, "samples") * field(f, "mean_abs_err_pct")) / samples;
    assert!(
        mean_abs <= 2.5,
        "mean |error| {mean_abs:.2}% (smoke run: 1.54%)"
    );
}
