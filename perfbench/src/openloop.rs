//! Open-loop timing: request `i` is due at `i / rate` seconds after the
//! loop starts, whether or not earlier requests have finished. Latency is
//! measured from the due time, so a stall also charges the requests that
//! queued behind it; lateness is how far behind its schedule the
//! generator itself sent a request.

/// Due time of request `i` at `rate` requests per second, in seconds from
/// the loop's start.
pub fn due_s(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// The timing record of one request, all in seconds from the loop start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
}

impl Timing {
    /// Latency from the due time (what a user arriving on schedule sees).
    pub fn latency_s(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent the request (never negative: a request
    /// is never sent before it is due).
    pub fn late_s(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Achieved rate of a finished loop: completions per second from the
/// loop's start to its last completion.
pub fn achieved_rate(timings: &[Timing]) -> f64 {
    let last_done = timings.iter().map(|t| t.done).fold(0.0, f64::max);
    if last_done > 0.0 {
        timings.len() as f64 / last_done
    } else {
        0.0
    }
}

/// Did the generator keep up with its schedule, i.e. did no backlog
/// build? Its sending rate — requests over the time to the last send plus
/// one interval — must reach `tolerance` × the offered rate. (Completions
/// would understate short loops by the last reply's latency.)
pub fn kept_up(timings: &[Timing], rate: f64, tolerance: f64) -> bool {
    let last_sent = timings.iter().map(|t| t.sent).fold(0.0, f64::max);
    let sending = timings.len() as f64 / (last_sent + 1.0 / rate);
    sending >= tolerance * rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_rate() {
        assert_eq!(due_s(0, 50.0), 0.0);
        assert_eq!(due_s(50, 50.0), 1.0);
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_separate() {
        // Due at 1.0 s; the generator was busy until 1.5 s; the reply came
        // at 1.7 s. The user waited 0.7 s, of which 0.5 s was queueing
        // behind the generator and 0.2 s service.
        let t = Timing {
            due: 1.0,
            sent: 1.5,
            done: 1.7,
        };
        assert!((t.latency_s() - 0.7).abs() < 1e-12);
        assert!((t.late_s() - 0.5).abs() < 1e-12);
        // Sent on time: no lateness, latency equals service time.
        let on_time = Timing {
            due: 2.0,
            sent: 2.0,
            done: 2.1,
        };
        assert_eq!(on_time.late_s(), 0.0);
        assert!((on_time.latency_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_stall_charges_every_request_queued_behind_it() {
        // 10 rps: requests due at 0.0, 0.1, 0.2. The first takes 0.35 s
        // and blocks a single connection; the others start when it ends.
        let ts = [
            Timing {
                due: 0.0,
                sent: 0.0,
                done: 0.35,
            },
            Timing {
                due: 0.1,
                sent: 0.35,
                done: 0.36,
            },
            Timing {
                due: 0.2,
                sent: 0.36,
                done: 0.37,
            },
        ];
        let lat: Vec<f64> = ts.iter().map(Timing::latency_s).collect();
        assert!((lat[1] - 0.26).abs() < 1e-9 && (lat[2] - 0.17).abs() < 1e-9);
        // 3 completions by 0.37 s.
        assert!((achieved_rate(&ts) - 3.0 / 0.37).abs() < 1e-9);
        // Sent 3 by 0.36 s against a schedule of 3 by 0.2 s: a backlog.
        assert!(!kept_up(&ts, 10.0, 0.95));
        // On schedule, a slow last reply is not a backlog.
        let on_time: Vec<Timing> = (0..3)
            .map(|i| Timing {
                due: due_s(i, 10.0),
                sent: due_s(i, 10.0),
                done: due_s(i, 10.0) + 0.3,
            })
            .collect();
        assert!(kept_up(&on_time, 10.0, 0.99));
    }
}
