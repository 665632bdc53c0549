//! Per-title ladder optimization (extension) — completing §2's Netflix
//! reference \[11\]/\[29\].
//!
//! The paper's encodings follow Netflix's per-title procedure for the
//! *allocation* pass; real per-title encoding also chooses the *ladder
//! bitrates* per title: hard titles get higher track bitrates, easy titles
//! lower, so every title reaches similar quality at each ladder rung.
//!
//! The experiment uses a mixed-difficulty catalog — four titles with
//! absolute hardness 0.7–1.6 (the complexity process mean-normalizes every
//! title, so hardness is the explicit cross-title knob; see
//! [`vbr_video::video::Video::synthesize_with_hardness`]) — encoded twice:
//! fixed ladder vs per-title ladder (bitrates × hardness^θ, budget-neutral
//! across the catalog), both streamed with CAVA. Expected shape: per-title
//! narrows the quality spread across titles and lifts the hardest title at
//! roughly the same total bits.

use crate::engine;
use crate::experiments::banner;
use crate::harness::{mean_of, run_with_factory, Metric, NetworkRegime};
use crate::results_dir;
use abr_sim::PlayerConfig;
use cava_core::Cava;
use sim_report::{CsvWriter, TextTable};
use std::io;
use vbr_video::encoder::{EncoderConfig, EncoderSource};
use vbr_video::{Genre, Ladder, Video};

/// Hypothetical mixed catalog: `(name, genre, seed, absolute hardness)`.
const CONTENTS: [(&str, Genre, u64, f64); 4] = [
    ("easy-animation", Genre::Animation, 201, 0.7),
    ("typical-animal", Genre::Animal, 202, 1.0),
    ("hard-scifi", Genre::SciFi, 203, 1.3),
    ("extreme-action", Genre::Action, 204, 1.6),
];

/// Quality-need super-linearity θ (matches the quality model).
const THETA: f64 = 1.25;

/// Run this experiment (registry entry point).
pub fn run() -> io::Result<()> {
    banner(
        "ext: per-title",
        "Fixed vs per-title encoding ladders (§2 refs [11]/[29])",
    );
    let base = Ladder::ffmpeg_h264();
    let traces = engine::traces(NetworkRegime::Lte);
    let qoe = NetworkRegime::Lte.corpus_qoe();
    let player = PlayerConfig::default();

    // Per-title bitrate scale = hardness^θ, normalized so the catalog's
    // total bit budget matches the fixed-ladder catalog.
    let scales: Vec<f64> = CONTENTS.iter().map(|c| c.3.powf(THETA)).collect();
    let mean_scale = scales.iter().sum::<f64>() / scales.len() as f64;

    let path = results_dir().join("exp_per_title.csv");
    let mut csv = CsvWriter::create(
        &path,
        &[
            "content",
            "ladder",
            "difficulty",
            "all_quality",
            "q4",
            "low_pct",
            "data_mb",
        ],
    )?;
    let mut table = TextTable::new(vec![
        "content",
        "hardness",
        "ladder",
        "all qual",
        "Q4 qual",
        "low-q %",
        "data (MB)",
    ]);
    let mut fixed_all = Vec::new();
    let mut per_title_all = Vec::new();
    for (k, &(name, genre, seed, hardness)) in CONTENTS.iter().enumerate() {
        let difficulty = hardness;
        for (label, ladder) in [
            ("fixed", base.clone()),
            ("per-title", base.per_title(scales[k] / mean_scale)),
        ] {
            let video_name = format!("{name}-{label}");
            let video = engine::video_with(&video_name, || {
                Video::synthesize_with_hardness(
                    video_name.clone(),
                    genre,
                    300,
                    2.0,
                    &ladder,
                    &EncoderConfig::capped_2x(EncoderSource::FFmpeg, seed),
                    seed,
                    hardness,
                )
            });
            let sessions = run_with_factory(
                &|| Box::new(Cava::paper_default()),
                &video,
                &traces,
                &qoe,
                &player,
            );
            let all_q = mean_of(Metric::AllQuality, &sessions);
            if label == "fixed" {
                fixed_all.push(all_q);
            } else {
                per_title_all.push(all_q);
            }
            table.add_row(vec![
                name.to_string(),
                format!("{difficulty:.2}"),
                label.to_string(),
                format!("{all_q:.1}"),
                format!("{:.1}", mean_of(Metric::Q4Quality, &sessions)),
                format!("{:.1}", mean_of(Metric::LowQualityPct, &sessions)),
                format!("{:.0}", mean_of(Metric::DataUsageMb, &sessions)),
            ]);
            csv.write_str_row(&[
                name,
                label,
                &format!("{difficulty:.3}"),
                &format!("{all_q:.2}"),
                &format!("{:.2}", mean_of(Metric::Q4Quality, &sessions)),
                &format!("{:.2}", mean_of(Metric::LowQualityPct, &sessions)),
                &format!("{:.1}", mean_of(Metric::DataUsageMb, &sessions)),
            ])?;
        }
        table.add_separator();
    }
    csv.flush()?;
    print!("{table}");
    let spread = |xs: &[f64]| {
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    println!(
        "across-title quality spread: fixed {:.1} VMAF, per-title {:.1} VMAF (budget-neutral)",
        spread(&fixed_all),
        spread(&per_title_all)
    );
    println!("per-title narrows the spread by giving hard titles more bits per rung");
    println!("wrote {}", path.display());
    Ok(())
}
