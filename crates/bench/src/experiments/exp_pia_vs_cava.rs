//! PIA vs CAVA (extension) — what "generalizing the control framework from
//! plain CBR to VBR" (§5.1) buys.
//!
//! PIA [the paper's ref. 33] is the authors' PID controller for CBR: fixed
//! target buffer, tracks represented by declared average bitrates, chunk
//! sizes ignored. CAVA keeps the control core and adds the three VBR
//! principles. Running both on VBR content isolates the value of the
//! generalization; running CAVA's ablation chain alongside shows where each
//! step of the lineage (PIA → p1 → p12 → p123) contributes.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{mean_of, run_scheme, Metric, NetworkRegime, SchemeKind};
use crate::results_dir;
use abr_sim::PlayerConfig;
use sim_report::{CsvWriter, TextTable};
use std::io;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "ext: PIA → CAVA",
        "The CBR-to-VBR control lineage on VBR content",
    );
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();
    let path = results_dir().join("exp_pia_vs_cava.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "video", "scheme", "q4", "q13", "low_pct", "rebuf_s", "qchange", "data_mb",
        ],
    )?;
    for video in [
        engine::video("ED-ffmpeg-h264"),
        engine::video("ED-youtube-h264"),
    ] {
        println!("--- {}", video.name());
        let mut table = TextTable::new(vec![
            "scheme",
            "Q4 qual",
            "Q1-3 qual",
            "low-q %",
            "rebuf (s)",
            "qual chg",
            "data (MB)",
        ]);
        for scheme in [
            SchemeKind::Pia,
            SchemeKind::CavaP1,
            SchemeKind::CavaP12,
            SchemeKind::Cava,
        ] {
            let sessions = run_scheme(scheme, &video, &traces, &qoe, &player);
            table.add_row(vec![
                scheme.name().to_string(),
                format!("{:.1}", mean_of(Metric::Q4Quality, &sessions)),
                format!("{:.1}", mean_of(Metric::Q13Quality, &sessions)),
                format!("{:.1}", mean_of(Metric::LowQualityPct, &sessions)),
                format!("{:.1}", mean_of(Metric::RebufferS, &sessions)),
                format!("{:.2}", mean_of(Metric::QualityChange, &sessions)),
                format!("{:.0}", mean_of(Metric::DataUsageMb, &sessions)),
            ]);
            csv.write_str_row(&[
                video.name(),
                scheme.name(),
                &format!("{:.2}", mean_of(Metric::Q4Quality, &sessions)),
                &format!("{:.2}", mean_of(Metric::Q13Quality, &sessions)),
                &format!("{:.2}", mean_of(Metric::LowQualityPct, &sessions)),
                &format!("{:.2}", mean_of(Metric::RebufferS, &sessions)),
                &format!("{:.3}", mean_of(Metric::QualityChange, &sessions)),
                &format!("{:.1}", mean_of(Metric::DataUsageMb, &sessions)),
            ])?;
        }
        print!("{table}");
    }
    csv.flush()?;
    println!("each row adds one step of VBR-awareness to the same PID core (§5.1)");
    println!("wrote {}", path.display());
    Ok(())
}
