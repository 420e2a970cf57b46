//! SVG rendering of the paper's figures — dependency-free emitters for the
//! four plot shapes the evaluation uses: stacked bars (Figure 1), cumulative
//! line series (Figure 2), CDFs (Figure 4), and matrix heat maps (Figure 5).
//! Figure 3's graph drawing is exported as DOT by [`crate::social`].
//!
//! The emitters take the same data structures the analyses produce, so
//! `likelab export DIR` can drop real figure files next to the JSON exports.

use crate::geo::GeoRow;
use crate::pagelikes::LikeCountCurve;
use crate::similarity::SimilarityMatrix;
use crate::temporal::TimeSeries;
use std::fmt::Write as _;

const WIDTH: f64 = 720.0;
const HEIGHT: f64 = 420.0;
const MARGIN: f64 = 55.0;
/// A color-blind-safe categorical palette.
const PALETTE: [&str; 8] = [
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2", "#9d755d", "#bab0ac",
];

fn header(title: &str) -> String {
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{HEIGHT}\" \
         viewBox=\"0 0 {WIDTH} {HEIGHT}\" font-family=\"sans-serif\" font-size=\"11\">\n\
         <rect width=\"{WIDTH}\" height=\"{HEIGHT}\" fill=\"white\"/>\n\
         <text x=\"{x}\" y=\"20\" text-anchor=\"middle\" font-size=\"14\">{title}</text>\n",
        x = WIDTH / 2.0,
    )
}

fn axes(x_label: &str, y_label: &str) -> String {
    let x0 = MARGIN;
    let y0 = HEIGHT - MARGIN;
    let x1 = WIDTH - MARGIN;
    let y1 = MARGIN;
    format!(
        "<line x1=\"{x0}\" y1=\"{y0}\" x2=\"{x1}\" y2=\"{y0}\" stroke=\"black\"/>\n\
         <line x1=\"{x0}\" y1=\"{y0}\" x2=\"{x0}\" y2=\"{y1}\" stroke=\"black\"/>\n\
         <text x=\"{xm}\" y=\"{yb}\" text-anchor=\"middle\">{x_label}</text>\n\
         <text x=\"16\" y=\"{ym}\" text-anchor=\"middle\" transform=\"rotate(-90 16 {ym})\">{y_label}</text>\n",
        xm = (x0 + x1) / 2.0,
        yb = HEIGHT - 12.0,
        ym = (y0 + y1) / 2.0,
    )
}

fn scale_x(v: f64, max: f64) -> f64 {
    MARGIN + (v / max.max(1e-12)) * (WIDTH - 2.0 * MARGIN)
}

fn scale_y(v: f64, max: f64) -> f64 {
    (HEIGHT - MARGIN) - (v / max.max(1e-12)) * (HEIGHT - 2.0 * MARGIN)
}

fn legend(labels: &[&str]) -> String {
    let mut out = String::new();
    for (i, label) in labels.iter().enumerate() {
        let y = MARGIN + 14.0 * i as f64;
        let color = PALETTE[i % PALETTE.len()];
        let _ = writeln!(
            out,
            "<rect x=\"{x}\" y=\"{ry}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{tx}\" y=\"{ty}\">{label}</text>",
            x = WIDTH - MARGIN + 6.0,
            ry = y - 9.0,
            tx = WIDTH - MARGIN + 20.0,
            ty = y,
        );
    }
    out
}

/// Figure 1 as stacked percentage bars.
pub fn figure1_svg(rows: &[GeoRow]) -> String {
    let buckets = ["USA", "India", "Egypt", "Turkey", "France", "Other"];
    let mut svg = header("Figure 1: Geolocation of the likers (per campaign)");
    svg.push_str(&axes("", "% of likers"));
    let n = rows.len().max(1);
    let band = (WIDTH - 2.0 * MARGIN) / n as f64;
    for (i, row) in rows.iter().enumerate() {
        let x = MARGIN + band * i as f64 + band * 0.15;
        let w = band * 0.7;
        let mut acc = 0.0;
        for (bi, share) in row.shares.iter().enumerate() {
            let y_top = scale_y((acc + share) * 100.0, 100.0);
            let y_bot = scale_y(acc * 100.0, 100.0);
            let _ = writeln!(
                svg,
                "<rect x=\"{x:.1}\" y=\"{y_top:.1}\" width=\"{w:.1}\" height=\"{h:.1}\" \
                 fill=\"{color}\"><title>{label} {bucket}: {pct:.1}%</title></rect>",
                h = (y_bot - y_top).max(0.0),
                color = PALETTE[bi % PALETTE.len()],
                label = row.label,
                bucket = buckets[bi],
                pct = share * 100.0,
            );
            acc += share;
        }
        let _ = writeln!(
            svg,
            "<text x=\"{cx:.1}\" y=\"{ty}\" text-anchor=\"middle\" font-size=\"9\" \
             transform=\"rotate(-45 {cx:.1} {ty})\">{label}</text>",
            cx = x + w / 2.0,
            ty = HEIGHT - MARGIN + 24.0,
            label = row.label,
        );
    }
    svg.push_str(&legend(&buckets));
    svg.push_str("</svg>\n");
    svg
}

/// Figure 2 as cumulative line series (one panel; filter by
/// `TimeSeries::platform_ads` for the paper's (a)/(b) split).
pub fn figure2_svg(series: &[TimeSeries], title: &str) -> String {
    let mut svg = header(title);
    svg.push_str(&axes("Day", "Cumulative likes"));
    let y_max = series
        .iter()
        .map(TimeSeries::total)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let x_max = series
        .iter()
        .flat_map(|s| s.daily.last().map(|(d, _)| *d))
        .fold(1.0f64, f64::max);
    for (i, s) in series.iter().enumerate() {
        let points: String = s
            .daily
            .iter()
            .map(|(d, n)| format!("{:.1},{:.1}", scale_x(*d, x_max), scale_y(*n as f64, y_max)))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            svg,
            "<polyline points=\"{points}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\">\
             <title>{label}</title></polyline>",
            color = PALETTE[i % PALETTE.len()],
            label = s.label,
        );
    }
    // Y-axis ticks.
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let _ = writeln!(
            svg,
            "<text x=\"{x}\" y=\"{y:.1}\" text-anchor=\"end\" font-size=\"9\">{v:.0}</text>",
            x = MARGIN - 4.0,
            y = scale_y(y_max * frac, y_max) + 3.0,
            v = y_max * frac,
        );
    }
    let labels: Vec<&str> = series.iter().map(|s| s.label.as_str()).collect();
    svg.push_str(&legend(&labels));
    svg.push_str("</svg>\n");
    svg
}

/// Figure 4 as CDF curves up to `x_max` page likes.
pub fn figure4_svg(curves: &[LikeCountCurve], x_max: f64) -> String {
    let mut svg = header("Figure 4: Distribution of likers' page-like counts");
    svg.push_str(&axes("Number of likes", "Cumulative fraction of users"));
    for (i, c) in curves.iter().enumerate() {
        if c.cdf.is_empty() {
            continue;
        }
        let points: String = c
            .cdf
            .series(x_max, 120)
            .iter()
            .map(|(x, y)| format!("{:.1},{:.1}", scale_x(*x, x_max), scale_y(*y, 1.0)))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            svg,
            "<polyline points=\"{points}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\">\
             <title>{label} (median {median:.0})</title></polyline>",
            color = PALETTE[i % PALETTE.len()],
            label = c.label,
            median = c.median(),
        );
    }
    let labels: Vec<&str> = curves
        .iter()
        .filter(|c| !c.cdf.is_empty())
        .map(|c| c.label.as_str())
        .collect();
    svg.push_str(&legend(&labels));
    svg.push_str("</svg>\n");
    svg
}

/// Figure 5 as a heat map (values expected in 0–100).
pub fn figure5_svg(matrix: &SimilarityMatrix, title: &str) -> String {
    let mut svg = header(title);
    let n = matrix.labels.len().max(1);
    let grid = (HEIGHT - 2.0 * MARGIN).min(WIDTH - 2.0 * MARGIN);
    let cell = grid / n as f64;
    for (i, row) in matrix.matrix.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            // White→blue ramp.
            let t = (v / 100.0).clamp(0.0, 1.0);
            let r = (255.0 * (1.0 - t * 0.75)) as u8;
            let g = (255.0 * (1.0 - t * 0.55)) as u8;
            let _ = writeln!(
                svg,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{cell:.1}\" height=\"{cell:.1}\" \
                 fill=\"rgb({r},{g},255)\" stroke=\"#ddd\">\
                 <title>{a} vs {b}: {v:.1}</title></rect>",
                x = MARGIN + cell * j as f64,
                y = MARGIN + cell * i as f64,
                a = matrix.labels[i],
                b = matrix.labels[j],
            );
        }
        let _ = writeln!(
            svg,
            "<text x=\"{x}\" y=\"{y:.1}\" text-anchor=\"end\" font-size=\"9\">{label}</text>",
            x = MARGIN - 4.0,
            y = MARGIN + cell * (i as f64 + 0.6),
            label = matrix.labels[i],
        );
        let _ = writeln!(
            svg,
            "<text x=\"{x:.1}\" y=\"{y:.1}\" text-anchor=\"start\" font-size=\"9\" \
             transform=\"rotate(-60 {x:.1} {y:.1})\">{label}</text>",
            x = MARGIN + cell * (i as f64 + 0.5),
            y = MARGIN - 6.0,
            label = matrix.labels[i],
        );
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Cdf;

    fn geo_rows() -> Vec<GeoRow> {
        vec![
            GeoRow {
                label: "FB-ALL".into(),
                shares: [0.0, 0.96, 0.02, 0.0, 0.0, 0.02],
                likers: 484,
            },
            GeoRow {
                label: "SF-USA".into(),
                shares: [0.05, 0.0, 0.0, 0.95, 0.0, 0.0],
                likers: 738,
            },
        ]
    }

    #[test]
    fn figure1_svg_is_well_formed() {
        let svg = figure1_svg(&geo_rows());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // 2 campaigns × 6 buckets of stacked rects + background + legend.
        assert!(svg.matches("<rect").count() >= 13);
        assert!(svg.contains("FB-ALL India: 96.0%"));
    }

    #[test]
    fn figure2_svg_draws_one_polyline_per_series() {
        let series = vec![TimeSeries {
            label: "BL-USA".into(),
            platform_ads: false,
            daily: (0..=15).map(|d| (d as f64, d * 40)).collect(),
            peak_2h_share: 0.03,
            days_to_90pct: 13.0,
            gap_cv: 1.0,
            gap_gini: 0.3,
        }];
        let svg = figure2_svg(&series, "Figure 2(b)");
        assert_eq!(svg.matches("<polyline").count(), 1);
        assert!(svg.contains("BL-USA"));
        assert!(svg.contains("Figure 2(b)"));
    }

    #[test]
    fn figure4_svg_skips_empty_curves() {
        let curves = vec![
            LikeCountCurve {
                label: "SF-ALL".into(),
                platform_ads: false,
                cdf: Cdf::new(vec![100.0, 1_500.0, 2_000.0]),
            },
            LikeCountCurve {
                label: "BL-ALL".into(),
                platform_ads: false,
                cdf: Cdf::new(vec![]),
            },
        ];
        let svg = figure4_svg(&curves, 10_000.0);
        assert_eq!(svg.matches("<polyline").count(), 1);
        assert!(svg.contains("SF-ALL"));
        assert!(!svg.contains(">BL-ALL<"));
    }

    #[test]
    fn figure5_svg_has_n_squared_cells() {
        let m = SimilarityMatrix {
            labels: vec!["A".into(), "B".into(), "C".into()],
            matrix: vec![
                vec![100.0, 10.0, 0.0],
                vec![10.0, 100.0, 5.0],
                vec![0.0, 5.0, 100.0],
            ],
        };
        let svg = figure5_svg(&m, "Figure 5(a)");
        // 9 cells + background rect.
        assert_eq!(svg.matches("<rect").count(), 10);
        assert!(svg.contains("A vs B: 10.0"));
    }

    #[test]
    fn svg_coordinates_are_finite() {
        let svg = figure1_svg(&geo_rows());
        assert!(!svg.contains("NaN"));
        assert!(!svg.contains("inf"));
    }
}
