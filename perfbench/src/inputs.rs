//! Input generation: event columns and SQL text, made from the seed before
//! anything is timed. The program under test receives only these.
//!
//! Times are a permutation of `0..n`: one event per time unit, the cost
//! model's constant pace. Values are multiples of 0.25 below 1024, so every
//! SUM or AVG the engine folds in any order is exact and the oracle can
//! demand `f64::to_bits` equality.

use factor_windows::core::{AggregateFunction, Window};
use factor_windows::workload::{
    generate_window_set, GenConfig, Generator, SplitMix64, WindowShape,
};

/// One SELECT term the oracle recomputes on its own: the function, the
/// windows it runs over, and its index in the SELECT list.
#[derive(Debug, Clone)]
pub struct Term {
    pub function: AggregateFunction,
    pub windows: Vec<Window>,
    pub agg: u32,
}

/// Generated event columns.
#[derive(Debug)]
pub struct Columns {
    pub times: Vec<u64>,
    pub keys: Vec<u32>,
    pub values: Vec<f64>,
}

impl Columns {
    pub fn len(&self) -> usize {
        self.times.len()
    }
}

/// `n` events over `keys` random keys. With `disorder > 1`, each block of
/// `disorder` events is reversed with probability 1/2, so no event trails
/// the running maximum by `disorder` time units or more.
pub fn columns(seed: u64, n: usize, keys: u32, disorder: usize) -> Columns {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut times: Vec<u64> = (0..n as u64).collect();
    if disorder > 1 {
        for block in times.chunks_mut(disorder) {
            if rng.next_u64() & 1 == 1 {
                block.reverse();
            }
        }
    }
    let keys: Vec<u32> = (0..n)
        .map(|_| (rng.next_u64() % u64::from(keys.max(1))) as u32)
        .collect();
    let values: Vec<f64> = (0..n)
        .map(|_| (rng.next_u64() % 4096) as f64 * 0.25)
        .collect();
    Columns {
        times,
        keys,
        values,
    }
}

/// `SELECT k, <terms> FROM S GROUP BY k, Windows(...)` over `windows`, in
/// time units of one second.
pub fn select_sql(terms: &[&str], windows: &[Window]) -> String {
    let specs: Vec<String> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let (r, s) = (w.range(), w.slide());
            if r == s {
                format!("Window('w{i}', TumblingWindow(second, {r}))")
            } else {
                format!("Window('w{i}', HoppingWindow(second, {r}, {s}))")
            }
        })
        .collect();
    format!(
        "SELECT k, {} FROM S GROUP BY k, Windows({})",
        terms.join(", "),
        specs.join(", ")
    )
}

/// The fixed RandomGen set seed of `paper-hop10`: the window set never
/// changes with `--seed`, only the stream does.
const HOP10_SET_SEED: u64 = 10;

/// `paper-hop10`: MIN over the paper's RandomGen hopping set of ten windows.
pub fn hop10_query() -> (String, Vec<Term>) {
    let set = generate_window_set(
        Generator::RandomGen,
        WindowShape::Hopping,
        10,
        &GenConfig::default(),
        HOP10_SET_SEED,
    );
    let windows = set.windows().to_vec();
    let sql = select_sql(&["MIN(v) AS lo"], &windows);
    let terms = vec![Term {
        function: AggregateFunction::Min,
        windows,
        agg: 0,
    }];
    (sql, terms)
}

/// `keyed-durable`: MIN, MAX and SUM over four correlated windows.
pub fn keyed_query() -> (String, Vec<Term>) {
    let windows = vec![
        Window::tumbling(20_000).expect("valid window"),
        Window::tumbling(30_000).expect("valid window"),
        Window::tumbling(40_000).expect("valid window"),
        Window::hopping(60_000, 20_000).expect("valid window"),
    ];
    let sql = select_sql(
        &["MIN(v) AS lo", "MAX(v) AS hi", "SUM(v) AS total"],
        &windows,
    );
    let terms = [
        AggregateFunction::Min,
        AggregateFunction::Max,
        AggregateFunction::Sum,
    ]
    .into_iter()
    .enumerate()
    .map(|(agg, function)| Term {
        function,
        windows: windows.clone(),
        agg: agg as u32,
    })
    .collect();
    (sql, terms)
}

/// `serve-fanout`: four correlated standing queries (window ranges are
/// multiples of 32768) followed by the load generator's latency probe.
/// Each query is one SQL statement with one term.
pub fn serve_queries() -> Vec<(String, Term)> {
    let t = |r| Window::tumbling(r).expect("valid window");
    let h = |r, s| Window::hopping(r, s).expect("valid window");
    let queries = [
        (
            "MIN(v) AS lo",
            AggregateFunction::Min,
            vec![t(32_768), t(65_536), t(131_072)],
        ),
        (
            "MAX(v) AS hi",
            AggregateFunction::Max,
            vec![t(32_768), h(131_072, 32_768)],
        ),
        (
            "SUM(v) AS total",
            AggregateFunction::Sum,
            vec![t(65_536), t(262_144)],
        ),
        (
            "AVG(v) AS mean",
            AggregateFunction::Avg,
            vec![h(65_536, 32_768), t(131_072)],
        ),
    ];
    let mut out: Vec<(String, Term)> = queries
        .into_iter()
        .map(|(term, function, windows)| {
            let sql = select_sql(&[term], &windows);
            (
                sql,
                Term {
                    function,
                    windows,
                    agg: 0,
                },
            )
        })
        .collect();
    out.push((
        factor_windows::serve::loadgen::PROBE_SQL.to_string(),
        Term {
            function: AggregateFunction::Sum,
            windows: vec![t(factor_windows::serve::loadgen::PROBE_RANGE)],
            agg: 0,
        },
    ));
    out
}
