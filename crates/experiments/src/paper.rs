//! The paper's reported numbers, as constants, for side-by-side
//! paper-vs-measured output in every experiment.

/// Section 5.1.2: configuration statistics on the real S&P 500 data.
pub struct PaperConfigStats {
    pub name: &'static str,
    pub num_directed_edges: usize,
    pub mean_acv_directed: f64,
    pub num_hyperedges: usize,
    pub mean_acv_hyper: f64,
}

/// C1 and C2 edge counts and mean ACVs (Section 5.1.2).
pub const CONFIG_STATS: [PaperConfigStats; 2] = [
    PaperConfigStats {
        name: "C1",
        num_directed_edges: 106_475,
        mean_acv_directed: 0.436,
        num_hyperedges: 157_412,
        mean_acv_hyper: 0.437,
    },
    PaperConfigStats {
        name: "C2",
        num_directed_edges: 109_810,
        mean_acv_directed: 0.288,
        num_hyperedges: 274_048,
        mean_acv_hyper: 0.288,
    },
];

/// One row of the paper's Table 5.2 (configuration C1): the top 2-to-1
/// hyperedge ACV and its two constituent directed-edge ACVs.
pub struct PaperTable52Row {
    pub subject: &'static str,
    pub hyper_acv: f64,
    pub edge1_acv: f64,
    pub edge2_acv: f64,
}

/// Table 5.2, configuration C1 rows (subject ticker, ACVs as printed).
pub const TABLE_5_2_C1: [PaperTable52Row; 11] = [
    PaperTable52Row {
        subject: "EMN",
        hyper_acv: 0.52,
        edge1_acv: 0.49,
        edge2_acv: 0.49,
    },
    PaperTable52Row {
        subject: "HON",
        hyper_acv: 0.53,
        edge1_acv: 0.50,
        edge2_acv: 0.49,
    },
    PaperTable52Row {
        subject: "GT",
        hyper_acv: 0.51,
        edge1_acv: 0.48,
        edge2_acv: 0.47,
    },
    PaperTable52Row {
        subject: "PG",
        hyper_acv: 0.53,
        edge1_acv: 0.50,
        edge2_acv: 0.49,
    },
    PaperTable52Row {
        subject: "XOM",
        hyper_acv: 0.58,
        edge1_acv: 0.55,
        edge2_acv: 0.54,
    },
    PaperTable52Row {
        subject: "AIG",
        hyper_acv: 0.54,
        edge1_acv: 0.51,
        edge2_acv: 0.51,
    },
    PaperTable52Row {
        subject: "JNJ",
        hyper_acv: 0.48,
        edge1_acv: 0.45,
        edge2_acv: 0.45,
    },
    PaperTable52Row {
        subject: "JCP",
        hyper_acv: 0.51,
        edge1_acv: 0.48,
        edge2_acv: 0.48,
    },
    PaperTable52Row {
        subject: "INTC",
        hyper_acv: 0.55,
        edge1_acv: 0.52,
        edge2_acv: 0.52,
    },
    PaperTable52Row {
        subject: "FDX",
        hyper_acv: 0.52,
        edge1_acv: 0.49,
        edge2_acv: 0.46,
    },
    PaperTable52Row {
        subject: "TE",
        hyper_acv: 0.55,
        edge1_acv: 0.52,
        edge2_acv: 0.52,
    },
];

/// The 11 subject tickers of Tables 5.1/5.2, with their paper sector codes.
pub const SUBJECT_TICKERS: [(&str, &str); 11] = [
    ("EMN", "BM"),
    ("HON", "CG"),
    ("GT", "CC"),
    ("PG", "CN"),
    ("XOM", "E"),
    ("AIG", "F"),
    ("JNJ", "H"),
    ("JCP", "SV"),
    ("INTC", "T"),
    ("FDX", "TP"),
    ("TE", "U"),
];

/// One row of Tables 5.3/5.4: dominator statistics and mean classification
/// confidences.
pub struct PaperDominatorRow {
    pub config: &'static str,
    /// Fraction of edges kept ("top X%").
    pub top_fraction: f64,
    pub acv_threshold: f64,
    pub dominator_size: usize,
    pub percent_covered: f64,
    pub abc_in_sample: f64,
    pub abc_out_sample: f64,
    pub svm: f64,
    pub mlp: f64,
    pub logistic: f64,
}

/// Table 5.3 (Algorithm 5 dominators).
pub const TABLE_5_3: [PaperDominatorRow; 6] = [
    PaperDominatorRow {
        config: "C1",
        top_fraction: 0.40,
        acv_threshold: 0.45,
        dominator_size: 13,
        percent_covered: 0.99,
        abc_in_sample: 0.643,
        abc_out_sample: 0.719,
        svm: 0.546,
        mlp: 0.716,
        logistic: 0.541,
    },
    PaperDominatorRow {
        config: "C1",
        top_fraction: 0.30,
        acv_threshold: 0.46,
        dominator_size: 15,
        percent_covered: 0.95,
        abc_in_sample: 0.646,
        abc_out_sample: 0.723,
        svm: 0.509,
        mlp: 0.718,
        logistic: 0.508,
    },
    PaperDominatorRow {
        config: "C1",
        top_fraction: 0.20,
        acv_threshold: 0.47,
        dominator_size: 22,
        percent_covered: 0.94,
        abc_in_sample: 0.650,
        abc_out_sample: 0.724,
        svm: 0.494,
        mlp: 0.719,
        logistic: 0.492,
    },
    PaperDominatorRow {
        config: "C2",
        top_fraction: 0.40,
        acv_threshold: 0.32,
        dominator_size: 20,
        percent_covered: 0.96,
        abc_in_sample: 0.646,
        abc_out_sample: 0.716,
        svm: 0.429,
        mlp: 0.627,
        logistic: 0.231,
    },
    PaperDominatorRow {
        config: "C2",
        top_fraction: 0.30,
        acv_threshold: 0.33,
        dominator_size: 30,
        percent_covered: 0.96,
        abc_in_sample: 0.649,
        abc_out_sample: 0.719,
        svm: 0.433,
        mlp: 0.638,
        logistic: 0.238,
    },
    PaperDominatorRow {
        config: "C2",
        top_fraction: 0.20,
        acv_threshold: 0.34,
        dominator_size: 31,
        percent_covered: 0.91,
        abc_in_sample: 0.650,
        abc_out_sample: 0.722,
        svm: 0.403,
        mlp: 0.633,
        logistic: 0.224,
    },
];

/// Table 5.4 (Algorithm 6 dominators).
pub const TABLE_5_4: [PaperDominatorRow; 6] = [
    PaperDominatorRow {
        config: "C1",
        top_fraction: 0.40,
        acv_threshold: 0.45,
        dominator_size: 16,
        percent_covered: 0.96,
        abc_in_sample: 0.651,
        abc_out_sample: 0.723,
        svm: 0.526,
        mlp: 0.717,
        logistic: 0.519,
    },
    PaperDominatorRow {
        config: "C1",
        top_fraction: 0.30,
        acv_threshold: 0.46,
        dominator_size: 22,
        percent_covered: 0.93,
        abc_in_sample: 0.653,
        abc_out_sample: 0.723,
        svm: 0.514,
        mlp: 0.718,
        logistic: 0.510,
    },
    PaperDominatorRow {
        config: "C1",
        top_fraction: 0.20,
        acv_threshold: 0.47,
        dominator_size: 26,
        percent_covered: 0.91,
        abc_in_sample: 0.656,
        abc_out_sample: 0.728,
        svm: 0.515,
        mlp: 0.725,
        logistic: 0.512,
    },
    PaperDominatorRow {
        config: "C2",
        top_fraction: 0.40,
        acv_threshold: 0.32,
        dominator_size: 28,
        percent_covered: 0.96,
        abc_in_sample: 0.650,
        abc_out_sample: 0.721,
        svm: 0.429,
        mlp: 0.627,
        logistic: 0.231,
    },
    PaperDominatorRow {
        config: "C2",
        top_fraction: 0.30,
        acv_threshold: 0.33,
        dominator_size: 40,
        percent_covered: 0.90,
        abc_in_sample: 0.652,
        abc_out_sample: 0.722,
        svm: 0.433,
        mlp: 0.638,
        logistic: 0.238,
    },
    PaperDominatorRow {
        config: "C2",
        top_fraction: 0.20,
        acv_threshold: 0.34,
        dominator_size: 36,
        percent_covered: 0.78,
        abc_in_sample: 0.652,
        abc_out_sample: 0.720,
        svm: 0.403,
        mlp: 0.633,
        logistic: 0.224,
    },
];

/// Figure 5.1's producer/consumer findings (Section 5.2): sector shares of
/// the top-25 weighted-degree lists.
pub struct PaperDegreeFindings {
    /// Share of the top-25 weighted in-degree nodes in sectors BM, E, SV.
    pub top25_in_producer_share: f64,
    /// Share of the top-25 weighted out-degree nodes in sectors H, SV, T.
    pub top25_out_consumer_share: f64,
}

/// Paper: 72% of top-25 in-degree in BM/E/SV; 84% of top-25 out-degree in
/// H/SV/T.
pub const DEGREE_FINDINGS: PaperDegreeFindings = PaperDegreeFindings {
    top25_in_producer_share: 0.72,
    top25_out_consumer_share: 0.84,
};

/// Figure 5.3's clustering quality statistics.
pub struct PaperClusterStats {
    pub mean_cluster_diameter: f64,
    pub mean_distance: f64,
    pub largest_cluster_size: usize,
}

/// Paper: mean diameter 0.83, overall mean distance 0.89, largest cluster
/// (size 29) all from sector T.
pub const CLUSTER_STATS: PaperClusterStats = PaperClusterStats {
    mean_cluster_diameter: 0.83,
    mean_distance: 0.89,
    largest_cluster_size: 29,
};

/// Figure 5.4: the ABC's confidence band over expanding training windows.
pub struct PaperFig54 {
    pub min_confidence: f64,
    pub max_confidence: f64,
}

/// Paper: "mean classification confidence in the range 0.60 to 0.75 on both
/// in-sample and out-sample data".
pub const FIG_5_4: PaperFig54 = PaperFig54 {
    min_confidence: 0.60,
    max_confidence: 0.75,
};
