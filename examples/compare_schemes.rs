// This target sits outside cfg(test), so opt out of the library-only
// workspace lints here explicitly.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

//! Compare every ABR scheme on one video across a set of LTE traces — the
//! paper's §6.3 evaluation in miniature.
//!
//! ```sh
//! cargo run --release --example compare_schemes [video-name] [n-traces]
//! ```
//!
//! Defaults: `ED-ffmpeg-h264`, 50 traces. Video names follow the dataset
//! convention, e.g. `BBB-youtube-h264`, `Sintel-ffmpeg-h265`.

use cava_suite::net::lte::{lte_traces, LteConfig};
use cava_suite::prelude::*;
use cava_suite::video::quality::VmafModel;

fn main() {
    let mut args = std::env::args().skip(1);
    let video_name = args.next().unwrap_or_else(|| "ED-ffmpeg-h264".to_string());
    let n_traces: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(50);
    let video = Dataset::by_name(&video_name).unwrap_or_else(|| {
        eprintln!("unknown video {video_name:?}; available:");
        for name in Dataset::names() {
            eprintln!("  {name}");
        }
        std::process::exit(1);
    });
    let manifest = Manifest::from_video(&video);
    let classification = Classification::from_video(&video);
    let traces = lte_traces(n_traces, 42, &LteConfig::default());
    let qoe = QoeConfig::lte();
    let sim = Simulator::paper_default();
    println!("{} over {} LTE traces", video.name(), traces.len());

    let mut schemes: Vec<Box<dyn AbrAlgorithm>> = vec![
        Box::new(Cava::paper_default()),
        Box::new(Mpc::mpc()),
        Box::new(Mpc::robust()),
        Box::new(PandaCq::max_sum(&video, VmafModel::Phone)),
        Box::new(PandaCq::max_min(&video, VmafModel::Phone)),
        Box::new(Rba::paper_default()),
        Box::new(Bba1::paper_default()),
        Box::new(Bola::bola_e(BolaBitrateView::Segment)),
    ];

    let mut table = TextTable::new(vec![
        "scheme",
        "Q4 qual",
        "Q1-3 qual",
        "low-q %",
        "rebuf (s)",
        "qual chg",
        "data (MB)",
    ]);
    for algo in &mut schemes {
        let mut acc = [0.0f64; 6];
        for trace in &traces {
            let session = sim.run(algo.as_mut(), &manifest, trace);
            let m = evaluate(&session, &video, &classification, &qoe);
            acc[0] += m.q4_quality_mean;
            acc[1] += m.q13_quality_mean;
            acc[2] += m.low_quality_pct;
            acc[3] += m.rebuffer_s;
            acc[4] += m.avg_quality_change;
            acc[5] += m.data_usage_bytes as f64 / 1e6;
        }
        let n = traces.len() as f64;
        table.add_row(vec![
            algo.name().to_string(),
            format!("{:.1}", acc[0] / n),
            format!("{:.1}", acc[1] / n),
            format!("{:.1}", acc[2] / n),
            format!("{:.1}", acc[3] / n),
            format!("{:.2}", acc[4] / n),
            format!("{:.0}", acc[5] / n),
        ]);
    }
    print!("{table}");
    println!("higher is better for the two quality columns; lower for the rest");
}
