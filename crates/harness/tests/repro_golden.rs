//! Pins the rendered output of every `repro --quick` configuration to a
//! golden digest.
//!
//! `parallel_determinism` proves that one build renders the same bytes
//! serially and in parallel; it cannot notice a refactor that changes
//! what every run renders. This test can: each digest below was captured
//! before the harness's run setups were folded into one scenario runner
//! (`ps_harness::scenario`), and every later refactor of the harness must
//! leave it unchanged. If a digest moves, observable behaviour changed —
//! that is a bug, not a baseline refresh.
//!
//! The digest is `ledger::fnv1a` over the same strings `repro` prints or
//! writes: the rendered tables, the trace and series exports, the
//! post-mortem bundle, and the campaign manifests.

use ps_harness::experiments::{ablation, fig2, oscillation, overhead, table1, table2};
use ps_harness::ledger::fnv1a;
use ps_harness::{campaign, chaos, explain, monitor_run, trace_run, SweepRunner};

/// Asserts one digest, naming the output that moved.
fn pin(what: &str, output: &str, golden: u64) {
    let got = fnv1a(output.as_bytes());
    assert_eq!(got, golden, "{what}: digest moved to {got:#018x}, pinned {golden:#018x}");
}

/// With the `tap` feature off the recorder stays empty and every
/// recorder-derived output differs; the goldens are defined for the
/// default (tap-on) configuration only.
fn tap_on() -> bool {
    ps_obs::Recorder::with_capacity(1).is_enabled()
}

#[test]
fn table1_output_is_pinned() {
    pin("table1", &table1::render(&table1::run()).to_string(), 0x0ed7_0a1e_25c4_9c35);
}

#[test]
fn table2_quick_output_is_pinned() {
    let rows = table2::run(&table2::Table2Config::quick());
    pin("table2", &table2::render(&rows).to_string(), 0xca21_f44a_e4e9_40bf);
}

#[test]
fn fig2_quick_output_is_pinned() {
    let r = fig2::run_with(&fig2::Fig2Config::quick(), &SweepRunner::new(2));
    pin("fig2", &fig2::render(&r).to_string(), 0x6415_ca8c_a48f_1019);
}

#[test]
fn overhead_quick_output_is_pinned() {
    let r = overhead::run(&overhead::OverheadConfig::quick());
    pin("overhead", &overhead::render(&r).to_string(), 0xc7d0_6a98_49f8_867b);
}

#[test]
fn ablation_quick_output_is_pinned() {
    let r = ablation::run_with(&ablation::AblationConfig::quick(), &SweepRunner::new(2));
    pin("ablation", &ablation::render(&r).to_string(), 0x7ff8_e672_5dff_1d1e);
}

#[test]
fn oscillation_quick_output_is_pinned() {
    let r = oscillation::run(&oscillation::OscillationConfig::quick());
    pin("oscillation", &oscillation::render(&r).to_string(), 0x2d37_66bf_22ef_2b86);
}

#[test]
fn trace_quick_output_and_export_are_pinned() {
    if !tap_on() {
        return;
    }
    let r = trace_run::run(&trace_run::TraceRunConfig::quick());
    pin("trace timeline", &trace_run::render_timeline(&r).to_string(), 0xf70e_883b_8edf_45ac);
    pin(
        "trace jsonl",
        &trace_run::export(&r, trace_run::TraceFormat::Jsonl),
        0x9823_c26d_0393_38fa,
    );
}

#[test]
fn monitor_quick_output_and_series_are_pinned() {
    if !tap_on() {
        return;
    }
    let r = monitor_run::run(&monitor_run::MonitorRunConfig::quick());
    let rendered = format!(
        "{}{}{}",
        monitor_run::render_series(&r),
        monitor_run::render_switches(&r),
        monitor_run::render_report(&r)
    );
    pin("monitor", &rendered, 0xad90_3be2_6284_bb25);
    pin("monitor series jsonl", &r.sampler.to_jsonl(), 0x4eb5_97b1_74c3_758a);
}

#[test]
fn explain_quick_output_and_fault_bundle_are_pinned() {
    if !tap_on() {
        return;
    }
    let clean = explain::run(&monitor_run::MonitorRunConfig::quick());
    pin("explain", &explain::render(&clean), 0x65de_5b8f_f734_311a);
    let cfg = monitor_run::MonitorRunConfig {
        inject_fault: true,
        ..monitor_run::MonitorRunConfig::quick()
    };
    let fault = explain::run(&cfg);
    pin("explain --fault", &explain::render(&fault), 0xd16f_8aef_0436_7c6d);
    let bundle = fault.bundle.expect("the seeded fault yields a post-mortem");
    pin("explain --fault bundle", &bundle.to_jsonl(), 0x7461_c320_8dab_a900);
}

#[test]
fn chaos_quick_output_is_pinned() {
    if !tap_on() {
        return;
    }
    let results = chaos::run_with(&chaos::ChaosConfig::quick(), &SweepRunner::new(2));
    pin("chaos", &chaos::render(&results).to_string(), 0xe8fc_9721_495d_2722);
}

#[test]
fn campaign_quick_output_and_manifests_are_pinned() {
    if !tap_on() {
        return;
    }
    let results = campaign::run_with(&campaign::CampaignConfig::quick(), &SweepRunner::new(2));
    pin("campaign", &campaign::render(&results).to_string(), 0xdad8_a273_2461_949c);
    pin("campaign manifests", &campaign::manifests_jsonl(&results), 0x0e03_79ab_26ca_5f31);
}

#[test]
fn campaign_quick_two_segment_output_is_pinned() {
    if !tap_on() {
        return;
    }
    let cfg = campaign::CampaignConfig { segments: 2, ..campaign::CampaignConfig::quick() };
    let results = campaign::run_with(&cfg, &SweepRunner::new(2));
    pin("campaign segments:2", &campaign::render(&results).to_string(), 0x152c_b6a6_795c_2e4a);
}
