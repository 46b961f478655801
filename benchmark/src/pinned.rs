//! What the default seed must generate and the engines must find in it.
//! Regenerate with `zstream_benchmark pin` — only in a change whose stated
//! purpose is to re-baseline, because every number measured before it was
//! measured on the stream these digests describe.

/// One workload's pinned input and output.
pub struct Pin {
    pub workload: &'static str,
    /// Input size the digests belong to.
    pub events: usize,
    /// `sut::input_digest` of the arrival batches.
    pub input_digest: u64,
    /// Matches the single-threaded engines find.
    pub matches: u64,
    /// Order-independent content digest of those matches.
    pub match_digest: u64,
}

/// Pinned values at `workloads::DEFAULT_SEED`.
pub const PINNED: &[Pin] = &[
    Pin {
        workload: "stock-keyed-seq",
        events: 1000000,
        input_digest: 0x3f8e52b095f3a298,
        matches: 430021,
        match_digest: 0x1248c5919c275f9b,
    },
    Pin {
        workload: "weblog-filter",
        events: 10000000,
        input_digest: 0x080c36199c8d0960,
        matches: 1117798,
        match_digest: 0xf94baa7c69a596e2,
    },
    Pin {
        workload: "alarm-1000q",
        events: 1700000,
        input_digest: 0x7c1b717acb80474b,
        matches: 55566,
        match_digest: 0x179c8c6433493d3d,
    },
    Pin {
        workload: "stock-disordered-ckpt",
        events: 800000,
        input_digest: 0xd8c0146b8cc90e07,
        matches: 342771,
        match_digest: 0xcf2c8bf153fb4f4a,
    },
    Pin {
        workload: "stock-seq-fanout",
        events: 48000,
        input_digest: 0xe6d1de4872c3d077,
        matches: 4380394,
        match_digest: 0x539b785825f284ff,
    },
];
