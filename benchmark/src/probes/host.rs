//! `host`: what an fsync costs here, for reading `smallbank_wal`.

use crate::stats::median;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Append 4 KiB to a plain file and `sync_data`, in µs: median of 16.
pub fn fsync_us(out_dir: &Path) -> f64 {
    let path = out_dir.join(format!("fsync-probe-{}", std::process::id()));
    let mut file = std::fs::File::create(&path).expect("create fsync probe file under out/");
    let block = [0u8; 4096];
    let samples: Vec<f64> = (0..16)
        .map(|_| {
            let start = Instant::now();
            file.write_all(&block).expect("write probe block");
            file.sync_data().expect("sync probe file");
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_file(&path);
    median(&samples)
}
