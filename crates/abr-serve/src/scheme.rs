//! The scheme catalog and the dataset video loader.
//!
//! [`SchemeKind`] is the one table of ABR schemes. Each variant carries its
//! wire name (`OpenSession`, CAVR logs, `cava run`), its display name
//! (CSVs, journals, the paper's labels) and its constructor. The session
//! store, the load generator, replay, the CLI and every experiment build
//! their algorithms through [`SchemeKind::build`], so a session opened over
//! the wire runs exactly the code a local run does: half of the
//! decision-parity guarantee.

use abr_baselines::{Bba1, Bola, BolaBitrateView, Festive, Mpc, PandaCq, Pia, Rba};
use abr_sim::AbrAlgorithm;
use cava_core::Cava;
use vbr_video::quality::VmafModel;
use vbr_video::{Dataset, Video};

/// Every scheme the reproduction can serve or evaluate. `Ord` follows
/// declaration order and keys the experiments' ordered grid maps, so
/// iteration over results is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SchemeKind {
    /// Full CAVA (all three design principles, §5).
    Cava,
    /// CAVA ablation: principle 1 only (§6.4).
    CavaP1,
    /// CAVA ablation: principles 1+2 (§6.4).
    CavaP12,
    /// MPC (Yin et al.), nominal predictions.
    Mpc,
    /// RobustMPC: MPC with conservative prediction discounting.
    RobustMpc,
    /// PANDA/CQ, max-sum objective (quality side information, §6.1).
    PandaMaxSum,
    /// PANDA/CQ, max-min objective.
    PandaMaxMin,
    /// Rate-based adaptation baseline.
    Rba,
    /// Buffer-based adaptation (BBA-1).
    Bba1,
    /// PIA: PID-control adaptation for CBR (§5.1 lineage).
    Pia,
    /// FESTIVE.
    Festive,
    /// Plain BOLA.
    Bola,
    /// BOLA-E seeing peak bitrates (§6.8).
    BolaEPeak,
    /// BOLA-E seeing average bitrates (§6.8).
    BolaEAvg,
    /// BOLA-E seeing per-segment sizes (§6.8).
    BolaESeg,
}

impl SchemeKind {
    /// Every scheme, in declaration order.
    pub const ALL: [SchemeKind; 15] = [
        SchemeKind::Cava,
        SchemeKind::CavaP1,
        SchemeKind::CavaP12,
        SchemeKind::Mpc,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxSum,
        SchemeKind::PandaMaxMin,
        SchemeKind::Rba,
        SchemeKind::Bba1,
        SchemeKind::Pia,
        SchemeKind::Festive,
        SchemeKind::Bola,
        SchemeKind::BolaEPeak,
        SchemeKind::BolaEAvg,
        SchemeKind::BolaESeg,
    ];

    /// The paper's §6.3 comparison set (Fig. 8).
    pub const FIG8: [SchemeKind; 5] = [
        SchemeKind::Cava,
        SchemeKind::Mpc,
        SchemeKind::RobustMpc,
        SchemeKind::PandaMaxSum,
        SchemeKind::PandaMaxMin,
    ];

    /// The §6.4 ablation set (Fig. 10).
    pub const ABLATION: [SchemeKind; 3] =
        [SchemeKind::CavaP1, SchemeKind::CavaP12, SchemeKind::Cava];

    /// The §6.8 dash.js set (Fig. 11).
    pub const FIG11: [SchemeKind; 4] = [
        SchemeKind::Cava,
        SchemeKind::BolaEAvg,
        SchemeKind::BolaEPeak,
        SchemeKind::BolaESeg,
    ];

    /// `(wire name, display name)`.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            SchemeKind::Cava => ("cava", "CAVA"),
            SchemeKind::CavaP1 => ("cava-p1", "CAVA-p1"),
            SchemeKind::CavaP12 => ("cava-p12", "CAVA-p12"),
            SchemeKind::Mpc => ("mpc", "MPC"),
            SchemeKind::RobustMpc => ("robustmpc", "RobustMPC"),
            SchemeKind::PandaMaxSum => ("panda-max-sum", "PANDA/CQ max-sum"),
            SchemeKind::PandaMaxMin => ("panda-max-min", "PANDA/CQ max-min"),
            SchemeKind::Rba => ("rba", "RBA"),
            SchemeKind::Bba1 => ("bba1", "BBA-1"),
            SchemeKind::Pia => ("pia", "PIA"),
            SchemeKind::Festive => ("festive", "FESTIVE"),
            SchemeKind::Bola => ("bola", "BOLA"),
            SchemeKind::BolaEPeak => ("bola-e-peak", "BOLA-E (peak)"),
            SchemeKind::BolaEAvg => ("bola-e-avg", "BOLA-E (avg)"),
            SchemeKind::BolaESeg => ("bola-e-seg", "BOLA-E (seg)"),
        }
    }

    /// Wire name: what `OpenSession`, CAVR logs and `cava run` carry.
    pub fn wire(self) -> &'static str {
        self.names().0
    }

    /// Display name matching the paper's; also the built algorithm's
    /// [`AbrAlgorithm::name`].
    pub fn name(self) -> &'static str {
        self.names().1
    }

    /// The scheme whose [`SchemeKind::wire`] name is `wire`.
    pub fn from_wire(wire: &str) -> Option<SchemeKind> {
        SchemeKind::ALL.into_iter().find(|k| k.wire() == wire)
    }

    /// Instantiate the scheme. PANDA/CQ receives the video's quality table
    /// under `model` (its granted side information, §6.1); every other
    /// scheme sees only the manifest. The box is `Send` so the session
    /// store can park it behind a per-session lock.
    pub fn build(self, video: &Video, model: VmafModel) -> Box<dyn AbrAlgorithm + Send> {
        match self {
            SchemeKind::Cava => Box::new(Cava::paper_default()),
            SchemeKind::CavaP1 => Box::new(Cava::p1()),
            SchemeKind::CavaP12 => Box::new(Cava::p12()),
            SchemeKind::Mpc => Box::new(Mpc::mpc()),
            SchemeKind::RobustMpc => Box::new(Mpc::robust()),
            SchemeKind::PandaMaxSum => Box::new(PandaCq::max_sum(video, model)),
            SchemeKind::PandaMaxMin => Box::new(PandaCq::max_min(video, model)),
            SchemeKind::Rba => Box::new(Rba::paper_default()),
            SchemeKind::Bba1 => Box::new(Bba1::paper_default()),
            SchemeKind::Pia => Box::new(Pia::paper_default()),
            SchemeKind::Festive => Box::new(Festive::paper_default()),
            SchemeKind::Bola => Box::new(Bola::bola()),
            SchemeKind::BolaEPeak => Box::new(Bola::bola_e(BolaBitrateView::Peak)),
            SchemeKind::BolaEAvg => Box::new(Bola::bola_e(BolaBitrateView::Average)),
            SchemeKind::BolaESeg => Box::new(Bola::bola_e(BolaBitrateView::Segment)),
        }
    }
}

/// Build a fresh scheme instance by wire name; unknown names are an error
/// that lists the known ones.
pub fn build_scheme(
    name: &str,
    video: &Video,
    model: VmafModel,
) -> Result<Box<dyn AbrAlgorithm + Send>, String> {
    let kind = SchemeKind::from_wire(name).ok_or_else(|| {
        let known = SchemeKind::ALL.map(SchemeKind::wire).join(", ");
        format!("unknown scheme {name:?} (known: {known})")
    })?;
    Ok(kind.build(video, model))
}

/// Whether `name` resolves through [`load_video`], checked against
/// [`Dataset::names`] without paying for synthesis.
pub fn is_known_video(name: &str) -> bool {
    Dataset::names().iter().any(|n| n == name)
}

/// Wire code for a [`VmafModel`] (0 = TV, 1 = phone).
pub fn vmaf_model_code(model: VmafModel) -> u8 {
    match model {
        VmafModel::Tv => 0,
        VmafModel::Phone => 1,
    }
}

/// Inverse of [`vmaf_model_code`]; `None` for codes outside the protocol.
pub fn vmaf_model_from_code(code: u8) -> Option<VmafModel> {
    match code {
        0 => Some(VmafModel::Tv),
        1 => Some(VmafModel::Phone),
        _ => None,
    }
}

/// Resolve a dataset video by name through [`Dataset::by_name`]; an
/// unknown name is an error that lists the known ones.
pub fn load_video(name: &str) -> Result<Video, String> {
    Dataset::by_name(name).ok_or_else(|| {
        format!(
            "unknown video {name:?}; run `cava list-videos` (known: {})",
            Dataset::names().join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbr_video::Manifest;

    #[test]
    fn every_registered_scheme_builds() {
        // The wire name round-trips, both name sets are unique, and the
        // built algorithm reports the display name: an experiment's label
        // is the algorithm a served session runs.
        let video = Dataset::ed_youtube_h264();
        for kind in SchemeKind::ALL {
            assert_eq!(SchemeKind::from_wire(kind.wire()), Some(kind));
            for model in [VmafModel::Tv, VmafModel::Phone] {
                assert_eq!(kind.build(&video, model).name(), kind.name());
            }
        }
        for names in [
            SchemeKind::ALL.map(SchemeKind::wire),
            SchemeKind::ALL.map(SchemeKind::name),
        ] {
            let mut sorted = names.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "{names:?}");
        }
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let video = Dataset::ed_youtube_h264();
        let err = match build_scheme("nope", &video, VmafModel::Tv) {
            Err(e) => e,
            Ok(_) => panic!("scheme \"nope\" should not build"),
        };
        assert!(err.contains("unknown scheme"));
        assert!(err.contains("bola-e-seg"));
        assert_eq!(SchemeKind::from_wire("nope"), None);
        assert_eq!(
            SchemeKind::from_wire("CAVA"),
            None,
            "display names are not wire names"
        );
    }

    #[test]
    fn encoder_variants_load() {
        for name in ["ED-ffmpeg-h264-cap4x", "ED-ffmpeg-h264-cbr"] {
            assert!(is_known_video(name));
            let video = load_video(name).unwrap();
            assert!(Manifest::from_video(&video).n_chunks() > 0);
        }
        assert!(!is_known_video("no-such-video"));
        assert!(load_video("no-such-video").is_err());
    }
}
