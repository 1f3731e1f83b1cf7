//! Criterion benches for the text substrate (stemmer throughput matters:
//! every query name of a graph is stemmed once, into its stem-class table).

use criterion::{criterion_group, criterion_main, Criterion};
use simrankpp_text::{normalize_query, stem, stem_signature, StemClasses};

const WORDS: &[&str] = &[
    "cameras",
    "running",
    "relational",
    "conditionally",
    "hopefulness",
    "digitizer",
    "flowers",
    "adjustment",
    "triplicate",
    "operational",
];

fn text(c: &mut Criterion) {
    c.bench_function("porter_stem_10_words", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for w in WORDS {
                total += stem(w).len();
            }
            total
        })
    });

    c.bench_function("normalize_query", |b| {
        b.iter(|| normalize_query("  Digital CAMERAS, best-price & reviews!  "))
    });

    c.bench_function("stem_signature", |b| {
        b.iter(|| stem_signature("cheap digital cameras online"))
    });

    c.bench_function("stem_classes_100_names", |b| {
        let names: Vec<String> = (0..100)
            .map(|i| format!("candidate query number {} variant{}", i % 40, i % 3))
            .collect();
        b.iter(|| StemClasses::from_names(names.iter().map(|n| Some(n.as_str()))))
    });
}

criterion_group!(benches, text);
criterion_main!(benches);
