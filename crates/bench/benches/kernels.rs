//! Hot-loop kernels: the scan pass itself, the ECC codecs, the extraction
//! pipeline, the PRNG, the parallel runtime and the log codec. Run with
//! `cargo bench -p uc-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use uc_analysis::extract::{extract_node_faults, ExtractConfig};
use uc_bench::campaign;
use uc_cluster::NodeId;
use uc_dram::ecc::{ChipkillCode, Secded3932};
use uc_dram::{Geometry, VecDevice};
use uc_memscan::{DeviceScanner, Pattern};
use uc_parallel::par_map;
use uc_simclock::rng::StreamRng;
use uc_simclock::SimTime;

fn scan_pass(c: &mut Criterion) {
    let words = Geometry::TINY.words();
    let mut group = c.benchmark_group("scan_pass");
    group.throughput(Throughput::Bytes(words * 4));
    group.bench_function("device_scan_iteration_256KiB", |b| {
        let device = VecDevice::new(Geometry::TINY, 1);
        let (mut scanner, _) = DeviceScanner::start(
            device,
            Pattern::Alternating,
            NodeId(0),
            SimTime::from_secs(0),
            None,
        );
        let mut t = 1i64;
        b.iter(|| {
            let rep = scanner.run_iteration(SimTime::from_secs(t), None);
            t += 1;
            black_box(rep.errors.len())
        })
    });
    group.finish();
}

fn ecc_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc");
    group.throughput(Throughput::Elements(1));
    let secded = Secded3932;
    group.bench_function("secded_encode", |b| {
        let mut x = 0u32;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(secded.encode(x))
        })
    });
    group.bench_function("secded_decode_clean", |b| {
        let cw = secded.encode(0xDEAD_BEEF);
        b.iter(|| black_box(secded.decode(cw, 0xDEAD_BEEF)))
    });
    group.bench_function("secded_judge_double_flip", |b| {
        b.iter(|| black_box(secded.judge_data_corruption(0xFFFF_FFFF, 0b1010_0000)))
    });
    let chipkill = ChipkillCode;
    group.bench_function("chipkill_encode", |b| {
        let mut x = 0u32;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(chipkill.encode(x))
        })
    });
    group.bench_function("chipkill_decode_single_symbol_error", |b| {
        let cw = chipkill.encode(0x0BAD_F00D) ^ (0x7 << 20);
        b.iter(|| black_box(chipkill.decode(cw, 0x0BAD_F00D)))
    });
    group.finish();
}

fn extraction(c: &mut Criterion) {
    let result = campaign();
    // The hottest node's log: the degrading node.
    let hot = NodeId::from_name("02-04").unwrap();
    let hot_log = result
        .completed()
        .find(|o| o.node == hot)
        .expect("hot node present");
    let mut group = c.benchmark_group("extraction");
    group.throughput(Throughput::Elements(hot_log.log.raw_record_count()));
    group.bench_function("extract_hot_node_log", |b| {
        b.iter(|| black_box(extract_node_faults(&hot_log.log, &ExtractConfig::default()).len()))
    });
    group.finish();
}

fn prng(c: &mut Criterion) {
    let mut group = c.benchmark_group("prng");
    group.throughput(Throughput::Elements(1));
    group.bench_function("xoshiro_next_u64", |b| {
        let mut rng = StreamRng::from_seed(1);
        b.iter(|| black_box(rng.next_u64()))
    });
    group.bench_function("lemire_below_1000", |b| {
        let mut rng = StreamRng::from_seed(2);
        b.iter(|| black_box(rng.below(1000)))
    });
    group.bench_function("poisson_mean_5", |b| {
        let mut rng = StreamRng::from_seed(3);
        b.iter(|| black_box(uc_simclock::dist::poisson(&mut rng, 5.0)))
    });
    group.finish();
}

fn parallel_runtime(c: &mut Criterion) {
    let items: Vec<u64> = (0..100_000).collect();
    let mut group = c.benchmark_group("parallel");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.bench_function("par_map_square_100k", |b| {
        b.iter(|| black_box(par_map(&items, |_, &x| x.wrapping_mul(x)).len()))
    });
    group.bench_function("sequential_sum_100k_baseline", |b| {
        b.iter(|| black_box(items.iter().copied().fold(0u64, u64::wrapping_add)))
    });
    group.finish();
}

/// The pre-cursor parser this PR replaced: tokenize the whole line with
/// `split_whitespace().collect()`, then re-scan the token vector once per
/// field. Kept inline as a permanent speedup baseline for `parse_error_line`
/// (the cursor parser must stay ≥3x faster than this on the ERROR case).
fn tokenizing_parse_error(line: &str) -> Option<(i64, NodeId, u64, u64, u32, u32, f32)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let field = |key: &str| -> Option<&str> {
        tokens
            .iter()
            .find(|t| t.starts_with(key) && t.as_bytes().get(key.len()) == Some(&b'='))
            .and_then(|t| t.split_once('='))
            .map(|(_, v)| v)
    };
    if tokens.first() != Some(&"ERROR") {
        return None;
    }
    let t = field("t")?.parse::<i64>().ok()?;
    let node = NodeId::from_name(field("node")?)?;
    let vaddr = u64::from_str_radix(field("vaddr")?.strip_prefix("0x")?, 16).ok()?;
    let page = u64::from_str_radix(field("page")?.strip_prefix("0x")?, 16).ok()?;
    let expected = u64::from_str_radix(field("expected")?.strip_prefix("0x")?, 16).ok()? as u32;
    let actual = u64::from_str_radix(field("actual")?.strip_prefix("0x")?, 16).ok()? as u32;
    let temp = field("temp")?.parse::<f32>().ok()?;
    Some((t, node, vaddr, page, expected, actual, temp))
}

fn log_codec(c: &mut Criterion) {
    use uc_faultlog::codec::{format_record, parse_entry_line, parse_line, write_record_into};
    use uc_faultlog::record::{ErrorRecord, LogRecord, TempC};
    let rec = LogRecord::Error(ErrorRecord {
        time: SimTime::from_secs(2_679_000),
        node: NodeId::from_name("02-04").unwrap(),
        vaddr: 0x00fa_3b9c,
        phys_page: 0x3e8,
        expected: 0xffff_ffff,
        actual: 0xffff_7bff,
        temp: Some(TempC(35.0)),
    });
    let line = format_record(&rec);
    let run_line = format!("ERRORRUN {} count=48 period=3600", &line["ERROR ".len()..]);
    let mut group = c.benchmark_group("log_codec");
    group.throughput(Throughput::Elements(1));
    group.bench_function("format_error_record", |b| {
        b.iter(|| black_box(format_record(&rec).len()))
    });
    group.bench_function("format_record_into_reused_buffer", |b| {
        let mut buf = String::with_capacity(128);
        b.iter(|| {
            buf.clear();
            write_record_into(&mut buf, &rec);
            black_box(buf.len())
        })
    });
    group.bench_function("parse_error_line", |b| {
        b.iter(|| black_box(parse_line(&line).unwrap()))
    });
    group.bench_function("parse_error_line_tokenizing_reference", |b| {
        b.iter(|| black_box(tokenizing_parse_error(&line).unwrap()))
    });
    group.bench_function("parse_errorrun_entry", |b| {
        b.iter(|| black_box(parse_entry_line(&run_line).unwrap()))
    });
    group.finish();

    // Full-file single-pass ingest: a realistic session mix, measured in
    // bytes/s so before/after throughput is comparable across line mixes.
    let mut text = String::new();
    let mut r = rec;
    for s in 0..1_000u64 {
        let t0 = s as i64 * 4_000;
        text.push_str(&format!("START t={t0} node=02-04 alloc=262144 temp=31.0\n"));
        for i in 0..8u64 {
            if let LogRecord::Error(e) = &mut r {
                e.time = SimTime::from_secs(t0 + 10 + i as i64);
                e.vaddr = 0x1000 + s * 64 + i;
            }
            write_record_into(&mut text, &r);
            text.push('\n');
        }
        text.push_str(&format!(
            "ERRORRUN t={} node=02-04 vaddr=0x00000fa3 page=0x0003e8 \
             expected=0xffffffff actual=0xffff7bff temp=35.0 count=12 period=60\n",
            t0 + 100
        ));
        text.push_str(&format!("END t={} node=02-04 temp=33.5\n", t0 + 3_600));
    }
    let mut group = c.benchmark_group("log_codec_ingest");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("recover_text_11k_lines", |b| {
        b.iter(|| {
            let rec = uc_faultlog::ingest::recover_text(&text);
            black_box(rec.stats.records_kept)
        })
    });
    group.finish();
}

criterion_group!(
    kernels,
    scan_pass,
    ecc_codecs,
    extraction,
    prng,
    parallel_runtime,
    log_codec
);
criterion_main!(kernels);
