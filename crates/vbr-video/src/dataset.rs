//! The CoNEXT '18 dataset (§2): 16 videos — 8 encoded "by YouTube" and 8 "by
//! FFmpeg" — plus two Elephant Dream encoder variants: the 4×-capped
//! encoding of §3.3 and a CBR encoding.
//!
//! | Group | Content | Codec | Chunks | Duration |
//! |---|---|---|---|---|
//! | FFmpeg | ED, BBB, ToS, Sintel | H.264 | 300 × 2 s | 10 min |
//! | FFmpeg | ED, BBB, ToS, Sintel | H.265 | 300 × 2 s | 10 min |
//! | YouTube | ED, BBB, ToS, Sintel | H.264 | 120 × 5 s | 10 min |
//! | YouTube | Sports, Animal, Nature, Action | H.264 | 120 × 5 s | 10 min |
//!
//! Each *content* has a fixed seed, shared by all its encodings, so the
//! FFmpeg and YouTube variants of, say, Elephant Dream have the same scene
//! structure — exactly as the paper re-encodes the same four Xiph source
//! videos through both pipelines.

use crate::complexity::Genre;
use crate::encoder::{EncoderConfig, EncoderSource};
use crate::ladder::{Codec, Ladder};
use crate::video::Video;
use serde::{Deserialize, Serialize};

/// Everything needed to deterministically build one dataset video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoSpec {
    /// Short content name, e.g. `"ED"`.
    pub content: String,
    /// Full video name, e.g. `"ED-ffmpeg-h264"`.
    pub name: String,
    pub genre: Genre,
    pub source: EncoderSource,
    pub codec: Codec,
    /// Chunk duration in seconds (2 for FFmpeg, 5 for YouTube in the paper).
    pub chunk_duration: f64,
    /// Number of chunks (so total duration ≈ 10 minutes).
    pub n_chunks: usize,
    /// Bitrate cap ratio (2.0 default; 4.0 in §3.3/§6.6).
    pub cap_ratio: f64,
    /// Seed shared by all encodings of the same content.
    pub content_seed: u64,
}

impl VideoSpec {
    fn new(
        content: &str,
        genre: Genre,
        source: EncoderSource,
        codec: Codec,
        cap_ratio: f64,
        content_seed: u64,
    ) -> VideoSpec {
        let chunk_duration = source.default_chunk_duration();
        let n_chunks = (600.0 / chunk_duration).round() as usize;
        // 2.0 is an exact configuration sentinel (the default cap), never a
        // computed value.
        #[allow(clippy::float_cmp)]
        let cap_tag = if cap_ratio == 2.0 {
            String::new()
        } else {
            format!("-cap{}x", cap_ratio as u32)
        };
        let name = format!(
            "{content}-{}-{}{}",
            source.name(),
            match codec {
                Codec::H264 => "h264",
                Codec::H265 => "h265",
            },
            cap_tag
        );
        VideoSpec {
            content: content.to_string(),
            name,
            genre,
            source,
            codec,
            chunk_duration,
            n_chunks,
            cap_ratio,
            content_seed,
        }
    }

    /// Build the video described by this spec.
    pub fn build(&self) -> Video {
        let ladder = match (self.source, self.codec) {
            (EncoderSource::FFmpeg, Codec::H264) => Ladder::ffmpeg_h264(),
            (EncoderSource::FFmpeg, Codec::H265) => Ladder::ffmpeg_h264().to_h265(),
            (EncoderSource::YouTube, Codec::H264) => Ladder::youtube_h264(),
            (EncoderSource::YouTube, Codec::H265) => Ladder::youtube_h264().to_h265(),
        };
        let cfg = if self.cap_ratio >= 4.0 {
            EncoderConfig::capped_4x(self.source, self.content_seed)
        } else {
            EncoderConfig::capped_2x(self.source, self.content_seed)
        };
        Video::synthesize(
            self.name.clone(),
            self.genre,
            self.n_chunks,
            self.chunk_duration,
            &ladder,
            &cfg,
            self.content_seed,
        )
    }
}

/// Builders for the paper's dataset.
///
/// ```
/// use vbr_video::Dataset;
/// let videos = Dataset::conext18();
/// assert_eq!(videos.len(), 16);
/// let ed = Dataset::by_name("ED-youtube-h264").unwrap();
/// assert_eq!(ed.chunk_duration(), 5.0);
/// assert_eq!(ed.n_tracks(), 6);
/// ```
pub struct Dataset;

/// Content seeds: one per source content, shared across encodings.
const ED: (&str, Genre, u64) = ("ED", Genre::Animation, 101);
const BBB: (&str, Genre, u64) = ("BBB", Genre::Animation, 102);
const TOS: (&str, Genre, u64) = ("ToS", Genre::SciFi, 103);
const SINTEL: (&str, Genre, u64) = ("Sintel", Genre::SciFi, 104);
const SPORTS: (&str, Genre, u64) = ("Sports", Genre::Sports, 105);
const ANIMAL: (&str, Genre, u64) = ("Animal", Genre::Animal, 106);
const NATURE: (&str, Genre, u64) = ("Nature", Genre::Nature, 107);
const ACTION: (&str, Genre, u64) = ("Action", Genre::Action, 108);

const XIPH: [(&str, Genre, u64); 4] = [ED, BBB, TOS, SINTEL];

/// The two Elephant Dream encoder variants outside the 16-video set: the
/// §3.3 4×-capped encoding and the CBR comparison encoding.
const CAP4X: &str = "ED-ffmpeg-h264-cap4x";
const CBR: &str = "ED-ffmpeg-h264-cbr";
const YOUTUBE_EXTRA: [(&str, Genre, u64); 4] = [SPORTS, ANIMAL, NATURE, ACTION];

impl Dataset {
    /// Specs of all 16 dataset videos (no 4×-cap variant).
    pub fn specs() -> Vec<VideoSpec> {
        let mut specs = Vec::with_capacity(16);
        for (content, genre, seed) in XIPH {
            specs.push(VideoSpec::new(
                content,
                genre,
                EncoderSource::FFmpeg,
                Codec::H264,
                2.0,
                seed,
            ));
        }
        for (content, genre, seed) in XIPH {
            specs.push(VideoSpec::new(
                content,
                genre,
                EncoderSource::FFmpeg,
                Codec::H265,
                2.0,
                seed,
            ));
        }
        for (content, genre, seed) in XIPH {
            specs.push(VideoSpec::new(
                content,
                genre,
                EncoderSource::YouTube,
                Codec::H264,
                2.0,
                seed,
            ));
        }
        for (content, genre, seed) in YOUTUBE_EXTRA {
            specs.push(VideoSpec::new(
                content,
                genre,
                EncoderSource::YouTube,
                Codec::H264,
                2.0,
                seed,
            ));
        }
        specs
    }

    /// Build all 16 dataset videos.
    pub fn conext18() -> Vec<Video> {
        Dataset::specs().iter().map(VideoSpec::build).collect()
    }

    /// The 4 FFmpeg H.264 videos.
    pub fn ffmpeg_h264() -> Vec<Video> {
        Dataset::specs()
            .iter()
            .filter(|s| s.source == EncoderSource::FFmpeg && s.codec == Codec::H264)
            .map(VideoSpec::build)
            .collect()
    }

    /// The 4 FFmpeg H.265 videos (§6.5).
    pub fn ffmpeg_h265() -> Vec<Video> {
        Dataset::specs()
            .iter()
            .filter(|s| s.codec == Codec::H265)
            .map(VideoSpec::build)
            .collect()
    }

    /// The 8 YouTube videos.
    pub fn youtube() -> Vec<Video> {
        Dataset::specs()
            .iter()
            .filter(|s| s.source == EncoderSource::YouTube)
            .map(VideoSpec::build)
            .collect()
    }

    /// Every name [`Dataset::by_name`] resolves, without synthesizing
    /// anything: the 16 [`Dataset::specs`] names, then the two encoder
    /// variants `ED-ffmpeg-h264-cap4x` and `ED-ffmpeg-h264-cbr`.
    pub fn names() -> Vec<String> {
        let mut names: Vec<String> = Dataset::specs().into_iter().map(|s| s.name).collect();
        names.extend([CAP4X, CBR].map(String::from));
        names
    }

    /// Build one video by its full name (e.g. `"ED-ffmpeg-h264"`), including
    /// the two encoder variants listed by [`Dataset::names`].
    pub fn by_name(name: &str) -> Option<Video> {
        match name {
            CAP4X => Some(Dataset::ed_ffmpeg_h264_cap4()),
            CBR => Some(Dataset::ed_ffmpeg_h264_cbr()),
            _ => Dataset::specs()
                .iter()
                .find(|s| s.name == name)
                .map(VideoSpec::build),
        }
    }

    /// The §3.3/§6.6 extra: Elephant Dream, FFmpeg H.264, 4×-capped.
    pub fn ed_ffmpeg_h264_cap4() -> Video {
        VideoSpec::new(ED.0, ED.1, EncoderSource::FFmpeg, Codec::H264, 4.0, ED.2).build()
    }

    /// Elephant Dream, FFmpeg H.264 — the paper's running example
    /// (Figs. 7, 8, 9, 10).
    pub fn ed_ffmpeg_h264() -> Video {
        Dataset::by_name("ED-ffmpeg-h264").expect("dataset invariant")
    }

    /// Elephant Dream encoded CBR at the same ladder averages — the
    /// traditional encoding the paper's §1 contrasts VBR against. Used by
    /// the VBR-vs-CBR motivation experiment; not part of the 16-video set.
    pub fn ed_ffmpeg_h264_cbr() -> Video {
        let ladder = Ladder::ffmpeg_h264();
        let cfg = EncoderConfig::cbr(EncoderSource::FFmpeg, ED.2);
        Video::synthesize(CBR, ED.1, 300, 2.0, &ladder, &cfg, ED.2)
    }

    /// Elephant Dream, YouTube H.264 — used in Figs. 1–3.
    pub fn ed_youtube_h264() -> Video {
        Dataset::by_name("ED-youtube-h264").expect("dataset invariant")
    }

    /// Big Buck Bunny, YouTube H.264 — used in Fig. 11 / Table 2.
    pub fn bbb_youtube_h264() -> Video {
        Dataset::by_name("BBB-youtube-h264").expect("dataset invariant")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_videos_with_unique_names() {
        let specs = Dataset::specs();
        assert_eq!(specs.len(), 16);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "duplicate video names");
    }

    #[test]
    fn by_name_resolves_every_listed_name() {
        let names = Dataset::names();
        assert_eq!(names.len(), 18);
        assert!(names.iter().any(|n| n == CAP4X) && names.iter().any(|n| n == CBR));
        for name in &names {
            let video = Dataset::by_name(name).unwrap();
            assert_eq!(video.name(), name);
        }
        assert!(Dataset::by_name("no-such-video").is_none());
    }

    #[test]
    fn group_sizes_match_paper() {
        assert_eq!(Dataset::ffmpeg_h264().len(), 4);
        assert_eq!(Dataset::ffmpeg_h265().len(), 4);
        assert_eq!(Dataset::youtube().len(), 8);
    }

    #[test]
    fn durations_are_ten_minutes() {
        for spec in Dataset::specs() {
            let total = spec.n_chunks as f64 * spec.chunk_duration;
            assert!((total - 600.0).abs() < 1e-9, "{}: {total}s", spec.name);
            match spec.source {
                EncoderSource::FFmpeg => assert_eq!(spec.chunk_duration, 2.0),
                EncoderSource::YouTube => assert_eq!(spec.chunk_duration, 5.0),
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Dataset::ed_ffmpeg_h264();
        let b = Dataset::ed_ffmpeg_h264();
        assert_eq!(a, b);
    }

    #[test]
    fn same_content_shares_scene_structure() {
        // FFmpeg and YouTube encodings of ED must share the content seed;
        // since chunk durations differ the complexity processes differ in
        // length, but the genre and seed provenance are identical. Verify via
        // H.264/H.265 pair, which shares chunking exactly.
        let h264 = Dataset::by_name("ED-ffmpeg-h264").unwrap();
        let h265 = Dataset::by_name("ED-ffmpeg-h265").unwrap();
        assert_eq!(h264.complexity(), h265.complexity());
    }

    #[test]
    fn h265_videos_are_smaller() {
        let h264 = Dataset::by_name("BBB-ffmpeg-h264").unwrap();
        let h265 = Dataset::by_name("BBB-ffmpeg-h265").unwrap();
        for l in 0..6 {
            assert!(h265.track(l).total_bytes() < h264.track(l).total_bytes());
        }
    }

    #[test]
    fn cap4_variant_has_higher_peak_ratio() {
        let cap2 = Dataset::ed_ffmpeg_h264();
        let cap4 = Dataset::ed_ffmpeg_h264_cap4();
        assert!(cap4.name().contains("cap4x"));
        assert!(cap4.track(4).peak_to_avg() > cap2.track(4).peak_to_avg());
    }

    #[test]
    fn by_name_unknown_is_none() {
        assert!(Dataset::by_name("nope").is_none());
    }

    #[test]
    fn cbr_variant_is_flat_and_same_budget() {
        let vbr = Dataset::ed_ffmpeg_h264();
        let cbr = Dataset::ed_ffmpeg_h264_cbr();
        for l in 0..6 {
            // Same average bitrate budget (within a few percent)…
            let ratio = cbr.track(l).realized_avg_bps() / vbr.track(l).realized_avg_bps();
            assert!((0.95..=1.05).contains(&ratio), "level {l}: ratio {ratio}");
            // …but far lower variability.
            assert!(
                cbr.track(l).bitrate_cov() < vbr.track(l).bitrate_cov() * 0.5,
                "level {l}: CBR CoV {} vs VBR {}",
                cbr.track(l).bitrate_cov(),
                vbr.track(l).bitrate_cov()
            );
            assert!(cbr.track(l).peak_to_avg() < 1.25, "level {l}");
        }
    }

    #[test]
    fn cbr_has_worse_complex_scene_quality_at_same_budget() {
        // §1: VBR realizes better quality for the same average bitrate —
        // the gap concentrates in complex scenes.
        let vbr = Dataset::ed_ffmpeg_h264();
        let cbr = Dataset::ed_ffmpeg_h264_cbr();
        let track = 3;
        let c = crate::classify::Classification::from_video(&vbr);
        let q4_mean = |v: &Video| {
            let pos = c.positions_of(crate::classify::ChunkClass::Q4);
            pos.iter()
                .map(|&i| v.quality(track, i).vmaf_phone)
                .sum::<f64>()
                / pos.len() as f64
        };
        assert!(
            q4_mean(&cbr) < q4_mean(&vbr) - 3.0,
            "CBR Q4 {} should trail VBR Q4 {}",
            q4_mean(&cbr),
            q4_mean(&vbr)
        );
    }

    #[test]
    fn dataset_statistics_match_paper_section2() {
        // CoV in 0.3–0.6 for upper tracks; peak/avg within 1.1–2.4 overall
        // (low tracks toward the bottom of the range).
        for v in Dataset::conext18() {
            for l in 2..v.n_tracks() {
                let cov = v.track(l).bitrate_cov();
                assert!(
                    (0.2..=0.7).contains(&cov),
                    "{} level {l}: CoV {cov}",
                    v.name()
                );
                let ratio = v.track(l).peak_to_avg();
                assert!(
                    (1.1..=2.6).contains(&ratio),
                    "{} level {l}: peak/avg {ratio}",
                    v.name()
                );
            }
        }
    }
}
