//! `LiveConfig::from_env` reads four `TTG_OBS_*` variables; sampling,
//! time-series, flight-window and cluster-analysis settings take their
//! defaults. One test in its own binary, so setting variables races no
//! other reader.

use ttg_obs::live::{DEFAULT_FLIGHT_WINDOW_MS, DEFAULT_SAMPLE_MS, DEFAULT_TS_CAPACITY};
use ttg_obs::{ClusterConfig, LiveConfig};

#[test]
fn from_env_reads_only_the_kept_knobs() {
    for (name, value) in [
        ("TTG_OBS_HTTP_PORT", "0"),
        ("TTG_OBS_FLIGHT_DIR", "flight-dumps"),
        ("TTG_OBS_CLUSTER", " a:1, ,b:2 "),
        ("TTG_OBS_CLUSTER_INTERVAL_MS", "250"),
    ] {
        std::env::set_var(name, value);
    }
    let c = LiveConfig::from_env();
    assert_eq!(c.http_port, Some(0));
    assert_eq!(c.flight_dir.as_deref(), Some("flight-dumps"));
    assert!(c.enabled());
    assert_eq!(c.sample_ms, DEFAULT_SAMPLE_MS);
    assert_eq!(c.ts_capacity, DEFAULT_TS_CAPACITY);
    assert_eq!(c.flight_window_ms, DEFAULT_FLIGHT_WINDOW_MS);

    let cluster = c.cluster.expect("TTG_OBS_CLUSTER turns the aggregator on");
    let defaults = ClusterConfig::default();
    assert_eq!(cluster.targets, ["a:1", "b:2"]);
    assert_eq!(cluster.self_index, None);
    assert_eq!(cluster.scrape_interval_ms, 250);
    assert_eq!(cluster.window, defaults.window);
    assert_eq!(cluster.skew_cov_threshold, defaults.skew_cov_threshold);
    assert_eq!(cluster.straggler_factor, defaults.straggler_factor);
    assert_eq!(
        cluster.straggler_consecutive,
        defaults.straggler_consecutive
    );
    assert_eq!(cluster.slowlink_factor, defaults.slowlink_factor);
    assert_eq!(cluster.slowlink_consecutive, defaults.slowlink_consecutive);

    std::env::set_var("TTG_OBS_CLUSTER", " , ");
    std::env::remove_var("TTG_OBS_HTTP_PORT");
    std::env::remove_var("TTG_OBS_FLIGHT_DIR");
    let c = LiveConfig::from_env();
    assert!(c.cluster.is_none(), "no target, no aggregator");
    assert!(!c.enabled());
}
