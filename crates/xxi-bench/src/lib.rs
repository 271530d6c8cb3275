//! The experiment suite: every experiment from DESIGN.md's index behind
//! the [`experiments::Experiment`] trait, the per-layer throughput
//! kernels in [`experiments::kernels`], the unified [`cli`], and the `xxi`
//! driver binary (`xxi list` / `xxi run` / `xxi validate` / `xxi bench` /
//! `xxi compare`).
//!
//! `xxi run <id>`'s stdout is pinned by `tests/golden.rs`. Keep
//! experiments deterministic: canonical seeds via `RunCtx::seed_or`, and
//! host timing only in [`bench`](mod@bench).

use xxi_core::obs::LogHistogram;
use xxi_core::table::fnum;
use xxi_core::Table;

pub mod bench;
pub mod cli;
pub mod experiments;

/// One table row of tail quantiles from a [`LogHistogram`]:
/// `[label, n, mean, p50, p90, p99, p99.9, max]`.
pub fn quantile_row(label: &str, h: &LogHistogram) -> Vec<String> {
    vec![
        label.to_string(),
        h.count().to_string(),
        fnum(h.mean()),
        fnum(h.p50()),
        fnum(h.p90()),
        fnum(h.p99()),
        fnum(h.p999()),
        fnum(h.max()),
    ]
}

/// A table pre-labelled with quantile columns; pair with [`quantile_row`].
pub fn quantile_table(value_label: &str) -> Table {
    Table::new(&[
        value_label,
        "n",
        "mean",
        "p50",
        "p90",
        "p99",
        "p99.9",
        "max",
    ])
}
