//! Regression: the `ffdl.sched.auto_rollbacks` telemetry counter must
//! agree with the report's rollback count. A tenant whose only
//! generation emits NaN logits is quarantined with no healthy target
//! left — no rollback happens, so both counts must stay at zero.
//!
//! Own test binary: the telemetry enable flag is process-global.

use ffdl_deploy::parse_architecture;
use ffdl_registry::ModelStore;
use ffdl_sched::{SchedConfig, Scheduler, TenantSpec};
use ffdl_serve::FailureKind;
use ffdl_tensor::Tensor;

const ARCH: &str = "\
input 16
circulant_fc 16 block=4
relu
fc 4
softmax
";

fn nan_network() -> ffdl_nn::Network {
    let mut net = parse_architecture(ARCH, 1).expect("arch parses").network;
    for layer in net.layers_mut() {
        let nan_params: Vec<Tensor> = layer
            .param_tensors()
            .iter()
            .map(|t| Tensor::from_fn(t.shape(), |_| f32::NAN))
            .collect();
        layer.load_params(&nan_params).expect("load NaN params");
    }
    net
}

#[test]
fn quarantine_without_rollback_counts_no_rollback_in_telemetry() {
    let dir = std::env::temp_dir().join(format!("ffdl-sched-rollback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");
    store
        .publish("nan-model", &nan_network(), "nan")
        .expect("publish");

    let config = SchedConfig {
        max_batch: 4,
        check_finite: true,
        unhealthy_threshold: 4,
        ..SchedConfig::default()
    };
    ffdl_telemetry::set_enabled(true);
    let sched =
        Scheduler::start(&store, &[TenantSpec::new("t", "nan-model")], &config).expect("start");
    let sample = Tensor::from_fn(&[16], |i| i as f32 * 0.05);
    for id in 0..16u64 {
        sched.submit(0, id, sample.clone()).expect("submit");
    }
    let report = sched.finish().expect("finish");
    ffdl_telemetry::set_enabled(false);

    assert!(report
        .serve
        .failures
        .iter()
        .all(|f| f.kind == FailureKind::UnhealthyModel));
    assert_eq!(
        report.serve.failures.len(),
        16,
        "every NaN batch fails typed"
    );
    assert_eq!(
        report.serve.quarantines, 1,
        "the only generation is quarantined"
    );
    let t = &report.serve.telemetry;
    assert_eq!(t.counter("ffdl.sched.quarantines"), Some(1));
    assert_eq!(
        t.counter("ffdl.sched.auto_rollbacks"),
        Some(report.serve.auto_rollbacks)
    );
    assert_eq!(
        report.serve.auto_rollbacks, 0,
        "nothing healthy to roll back to"
    );
    let _ = std::fs::remove_dir_all(dir);
}
