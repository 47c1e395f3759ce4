//! Seeded inputs, generated outside every timed window and outside
//! `setup_s`.
//!
//! Synthesis at 160×120 costs far more per frame than ingest does, so a
//! run renders a small pool of clips once and cycles it under distinct
//! names. The `search` catalogue is built from seeded, jittered copies of
//! real analyses instead of from rendered video.

use vdb_core::analyzer::{AnalyzerConfig, VideoAnalysis};
use vdb_core::frame::Video;
use vdb_core::variance::ShotFeature;
use vdb_core::StreamingAnalyzer;
use vdb_store::catalog::{GenreId, Taxonomy};
use vdb_synth::rng::Srng;
use vdb_synth::Genre;

/// The paper's analysis resolution.
pub const PAPER_DIMS: (u32, u32) = (160, 120);

/// The four genres of the ingest pool, with the catalogue genre each
/// clip is tagged with.
pub const POOL_GENRES: [(Genre, &str); 4] = [
    (Genre::Drama, "crime"),
    (Genre::Cartoon, "comedy"),
    (Genre::Sitcom, "romance"),
    (Genre::Commercials, "musical"),
];

/// One pool clip: the rendered video and the analysis an in-process
/// [`StreamingAnalyzer`] produces for it (the boundary oracle).
pub struct Clip {
    pub genre_name: &'static str,
    pub video: Video,
    pub expected: VideoAnalysis,
}

impl Clip {
    pub fn frames(&self) -> usize {
        self.video.len()
    }

    pub fn genre(&self, taxonomy: &Taxonomy) -> GenreId {
        taxonomy
            .genre(self.genre_name)
            .expect("pool genres are in the default taxonomy")
    }
}

/// A stable 64-bit mix of the run seed and a tag, so every input stream
/// of a run derives from `--seed` alone.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Analyse a video frame by frame, the way a wire stream is analysed.
pub fn stream_analysis(video: &Video) -> VideoAnalysis {
    let mut analyzer = StreamingAnalyzer::new(AnalyzerConfig::default());
    for frame in video.frames() {
        analyzer.push(frame).expect("pool frames share one size");
    }
    analyzer.finish().expect("pool clips are not empty")
}

/// Render `count` clips (cycling the four pool genres) of exactly
/// `frames` frames, cut into shots averaging `mean_frames` frames, at
/// `dims`. Every clip has the same length, so a clip-level latency
/// varies with content, not with how long the seed made the clip.
pub fn pool(
    seed: u64,
    count: usize,
    frames: usize,
    mean_frames: f64,
    dims: (u32, u32),
) -> Vec<Clip> {
    // Enough shots that even the shortest draws cover `frames`.
    let shots = (frames as f64 / (mean_frames * 0.5).max(1.0)).ceil() as usize + 1;
    (0..count)
        .map(|i| {
            let (genre, genre_name) = POOL_GENRES[i % POOL_GENRES.len()];
            let mut script =
                vdb_synth::build_script(genre, shots, Some(mean_frames), dims, mix(seed, i as u64));
            while script.shots.len() > 1 && script.total_frames() > frames {
                script.shots.pop();
                script.transitions.truncate(script.shots.len() - 1);
            }
            let short = frames.saturating_sub(script.total_frames());
            if let Some(last) = script.shots.last_mut() {
                last.frames += short;
            }
            let video = vdb_synth::generate(&script).video;
            let expected = stream_analysis(&video);
            Clip {
                genre_name,
                video,
                expected,
            }
        })
        .collect()
}

/// A jittered copy of a real analysis. The index matches in
/// standard-deviation space, so every shot's `√Var^BA` and `√Var^OA` is
/// scaled by a seeded factor in `[e^-0.5, e^0.5]` and shifted by a seeded
/// offset in `[0, spread)`: copies spread over the feature space like
/// distinct videos would, while keeping real shot, sign and scene-tree
/// structure.
pub fn jittered(source: &VideoAnalysis, rng: &mut Srng, spread: f64) -> VideoAnalysis {
    let mut copy = source.clone();
    let mut jitter = |var: f64| {
        let sd = var.sqrt() * rng.range_f64(-0.5, 0.5).exp() + rng.range_f64(0.0, spread);
        sd * sd
    };
    for f in &mut copy.features {
        *f = ShotFeature {
            var_ba: jitter(f.var_ba),
            var_oa: jitter(f.var_oa),
        };
    }
    copy
}

/// The read-request kinds of the browsing mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Eqs. 7–8 range query at the paper's α = β = 1.
    Range,
    /// A narrow range around a real shot's features (query by example).
    Example,
    /// `k=` top-k nearest shots.
    TopK,
    /// `tree <id>`: the scene tree of one video.
    Tree,
    /// `board <id>`: the storyboard of one video.
    Board,
}

impl ReadKind {
    pub const ALL: [ReadKind; 5] = [
        ReadKind::Range,
        ReadKind::Example,
        ReadKind::TopK,
        ReadKind::Tree,
        ReadKind::Board,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ReadKind::Range => "query",
            ReadKind::Example => "example",
            ReadKind::TopK => "topk",
            ReadKind::Tree => "tree",
            ReadKind::Board => "board",
        }
    }
}

/// One request of a read mix and the reply the oracle expects.
#[derive(Debug, Clone)]
pub struct ReadLine {
    pub kind: ReadKind,
    pub line: String,
    pub expected: String,
}

/// Build `per_kind` request lines of each kind in `kinds`. Query points
/// come from `features` (real shot features of the catalogue); `ids` are
/// the videos `tree`/`board` may name. `filter` is appended to every
/// query (e.g. `genre=crime`).
pub fn read_lines(
    seed: u64,
    kinds: &[ReadKind],
    per_kind: usize,
    features: &[ShotFeature],
    ids: &[u64],
    filter: &str,
) -> Vec<(ReadKind, String)> {
    let mut rng = Srng::new(mix(seed, 0x5EA4));
    let mut out = Vec::new();
    for &kind in kinds {
        for _ in 0..per_kind {
            let f = *rng.pick(features);
            let line = match kind {
                ReadKind::Range => format!(
                    "query ba={} oa={} alpha=1 beta=1 {filter}",
                    f.var_ba * rng.range_f64(0.5, 1.5),
                    f.var_oa * rng.range_f64(0.5, 1.5)
                ),
                ReadKind::Example => format!(
                    "query ba={} oa={} alpha=0.05 beta=0.05 {filter}",
                    f.var_ba, f.var_oa
                ),
                ReadKind::TopK => format!("query ba={} oa={} k=10 {filter}", f.var_ba, f.var_oa),
                ReadKind::Tree => format!("tree {}", rng.pick(ids)),
                ReadKind::Board => format!("board {} 6", rng.pick(ids)),
            };
            out.push((kind, line.trim_end().to_string()));
        }
    }
    // Interleave kinds so any window of the request sequence sees the
    // whole mix.
    let mut order: Vec<usize> = (0..out.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order.into_iter().map(|i| out[i].clone()).collect()
}

/// Attach the oracle's expected reply to every line: the in-process
/// shell over a database built from the same inputs.
pub fn with_expected(
    db: &vdb_store::VideoDatabase,
    lines: Vec<(ReadKind, String)>,
) -> Vec<ReadLine> {
    use vdb_store::shell::{execute_readonly, Command};
    lines
        .into_iter()
        .map(|(kind, line)| {
            let expected = execute_readonly(db, &Command::parse(&line))
                .expect("read mix lines are read-only commands");
            ReadLine {
                kind,
                line,
                expected,
            }
        })
        .collect()
}

/// Check the oracle database's own index against the linear scan for
/// every query of the mix; returns the mismatching lines.
pub fn index_oracle_mismatches(db: &vdb_store::VideoDatabase, lines: &[ReadLine]) -> Vec<String> {
    let mut bad = Vec::new();
    for l in lines {
        let Some(text) = l.line.strip_prefix("query ") else {
            continue;
        };
        let spec = vdb_store::QuerySpec::parse(text, db.taxonomy()).expect("mix queries parse");
        let index = db.index();
        let same = match spec.k {
            Some(k) => {
                index.query_topk(&spec.variance, k) == index.query_topk_scan(&spec.variance, k)
            }
            None => index.query(&spec.variance) == index.query_scan(&spec.variance),
        };
        if !same {
            bad.push(l.line.clone());
        }
    }
    bad
}

/// Every shot feature of a database's analyses (query points for a mix).
pub fn catalogue_features(db: &vdb_store::VideoDatabase) -> Vec<ShotFeature> {
    db.index()
        .entries()
        .iter()
        .map(|e| ShotFeature {
            var_ba: e.var_ba,
            var_oa: e.var_oa,
        })
        .collect()
}
