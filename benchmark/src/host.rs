//! The host the benchmark runs on: CPU affinity, and a host-speed
//! reference, a fixed task owned by the benchmark, timed between requests
//! so that the timed metrics can be reported at one host speed.
//!
//! The reference host is a VM whose idle vCPUs are slow to wake, so a
//! request whose hand-offs cross vCPUs waits on the hypervisor as well as
//! on the program. The benchmark therefore [`pin_to`]s the server, the
//! reader and the probe to one CPU, which never idles while a request is
//! in flight: every hand-off is a context switch on that CPU. The writer of
//! `mixed_rw` runs on a second CPU when there is one, so that its work does
//! not land inside the probe's time.
//!
//! The reference host's speed drifts by 10–40% over minutes, and every
//! workload slows with it. The probe does a fixed amount of the two kinds
//! of work a served request is made of: arithmetic (dot products over a
//! 16 KiB table, which stays in L1, so the program's cache footprint does
//! not move it) and thread hand-offs (one-byte round trips over loopback to
//! an echo thread, which pay the system calls and wake-ups of the request
//! path). The timed metrics are scaled by [`NOMINAL_S`] over the probe's
//! median time in the same run. The probe runs on the load generator's
//! thread while none of its requests is in flight, so the program's own
//! work does not overlap it — unless the program keeps threads busy
//! between requests, which the unscaled values in the notes still show.

use crate::report::median;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Rows of the arithmetic table.
const ROWS: usize = 256;
/// Coordinates per row.
const DIM: usize = 8;
/// Passes over the table per probe.
const PASSES: usize = 2048;
/// Loopback round trips per probe.
const ROUND_TRIPS: usize = 32;
/// The probe's median time on the reference host (2-vCPU Xeon VM at
/// 2.0 GHz) in a quiet period; the timed metrics are reported at that
/// speed.
pub const NOMINAL_S: f64 = 1.5e-3;

/// Words of the kernel's CPU mask (`cpu_set_t`, 1,024 bits).
#[cfg(target_os = "linux")]
const CPU_MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, lowest first.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: `mask` is writable and exactly `cpusetsize` bytes long, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..CPU_MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Restrict the calling thread, and every thread it starts afterwards, to
/// `cpu`.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("no CPU {cpu} in the mask")))? = 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly `cpusetsize` bytes long, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// CPU affinity is read and set through Linux system calls only.
#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU affinity needs Linux",
    ))
}

/// CPU affinity is read and set through Linux system calls only.
#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU affinity needs Linux",
    ))
}

/// The reference task and the echo thread it talks to.
pub struct Probe {
    rows: Vec<f64>,
    peer: TcpStream,
    echo: Option<JoinHandle<()>>,
}

impl Probe {
    /// Start the echo thread and connect to it.
    pub fn new() -> io::Result<Probe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let peer = TcpStream::connect(listener.local_addr()?)?;
        peer.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else {
                return;
            };
            let _ = s.set_nodelay(true);
            let mut byte = [0u8; 1];
            // Until the probe shuts its end down.
            while let Ok(1) = s.read(&mut byte) {
                if s.write_all(&byte).is_err() {
                    break;
                }
            }
        });
        let rows = (0..ROWS * DIM)
            .map(|i| ((i * 7919) % 101) as f64 + 1.0)
            .collect();
        Ok(Probe {
            rows,
            peer,
            echo: Some(echo),
        })
    }

    /// Run the task once; returns its wall time, s.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        let mut below = 0usize;
        for pass in 0..PASSES {
            let a: [f64; DIM] = std::array::from_fn(|k| 1.0 + ((pass + k) % 5) as f64);
            for row in black_box(&self.rows).chunks_exact(DIM) {
                let dot: f64 = row.iter().zip(&a).map(|(x, w)| x * w).sum();
                below += usize::from(dot <= 1_200.0);
            }
        }
        black_box(below);
        let mut byte = [0u8; 1];
        for _ in 0..ROUND_TRIPS {
            (&self.peer)
                .write_all(&[1])
                .and_then(|()| (&self.peer).read_exact(&mut byte))
                .expect("the echo thread answers while the probe lives");
        }
        start.elapsed().as_secs_f64()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.peer.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Probe times collected over a stretch of a run.
#[derive(Debug, Default, Clone)]
pub struct Speed {
    /// Each probe's time, s.
    pub samples: Vec<f64>,
}

impl Speed {
    /// How much faster the host ran than the reference: nominal over the
    /// median probe time (1 when nothing was sampled).
    pub fn factor(&self) -> f64 {
        match median(&self.samples) {
            t if t > 0.0 => NOMINAL_S / t,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_faster_host_has_a_larger_factor() {
        let fast = Speed {
            samples: vec![0.75e-3, 0.6e-3, 0.9e-3],
        };
        let slow = Speed {
            samples: vec![3.0e-3],
        };
        assert_eq!(fast.factor(), 2.0);
        assert_eq!(slow.factor(), 0.5);
        assert_eq!(Speed::default().factor(), 1.0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_pinned_thread_may_run_only_on_its_cpu() {
        let cpus = allowed_cpus().expect("affinity mask");
        let last = *cpus.last().expect("at least one CPU");
        std::thread::spawn(move || {
            pin_to(last).expect("pin");
            assert_eq!(allowed_cpus().expect("affinity mask"), vec![last]);
        })
        .join()
        .expect("pinned thread");
    }

    #[test]
    fn the_probe_does_its_work_and_stops_its_echo_thread() {
        let probe = Probe::new().expect("loopback");
        assert!(probe.time() > 0.0);
        drop(probe); // joins the echo thread
    }
}
