//! Integration test: the protocol parameters, workload constants and header
//! sizes the paper states (Figure 3, §6.3, Figure 6, §4.6) hold in the
//! implementation, each asserted where it lives.

use netfence_core::feedback::{Action, Feedback};
use netfence_core::header::{NetFenceHeader, PASSPORT_HEADER_LEN};
use netfence_core::prelude::*;
use netfence_sim::queue::RedParams;
use netfence_sim::{tcp, udp, webtraffic};

#[test]
fn figure3_parameters() {
    let cfg = Config::default();
    assert_eq!(cfg.ilim, 2 * SEC);
    assert_eq!(cfg.feedback_expiry, 4 * SEC);
    assert_eq!(cfg.additive_increase, 12_000);
    assert!((cfg.multiplicative_decrease - 0.1).abs() < 1e-12);
    assert!((cfg.loss_threshold - 0.02).abs() < 1e-12);
    assert!((cfg.request_channel_fraction - 0.05).abs() < 1e-12);
    assert!(cfg.validate().is_empty());
    // The queue rows, on a 10 Mbps link: Q_lim = 0.2 s × bandwidth.
    let red = RedParams::paper_defaults(10_000_000);
    assert_eq!(red.limit_bytes, 250_000);
    assert_eq!(red.min_thresh, 125_000);
    assert_eq!(red.max_thresh, 187_500);
    assert!((red.wq - 0.1).abs() < 1e-12);
    assert!((red.max_p - 0.1).abs() < 1e-12);
}

#[test]
fn section_6_3_workload_constants() {
    // §6.3.1: 1 s SYN timeout, abort after nine retries.
    assert_eq!(tcp::SYN_TIMEOUT, SEC);
    assert_eq!(tcp::MAX_SYN_RETRIES, 9);
    // §6.3.2: files capped at 150 KB, 0.1–0.2 s between transfers.
    assert_eq!(webtraffic::MAX_BYTES, 150_000);
    assert_eq!((webtraffic::THINK_MIN, webtraffic::THINK_MAX), (100 * MILLI, 200 * MILLI));
    // Full-size data packets; §3.1's low-rate echo is one §4.6 request
    // packet every 200 ms.
    assert_eq!(udp::PKT_SIZE, 1500);
    assert_eq!((udp::ECHO_SIZE, udp::ECHO_INTERVAL), (92, 200 * MILLI));
}

#[test]
fn header_sizes_match_section_6_1() {
    let mon =
        Feedback::Mon { link: LinkId(1), action: Action::Decr, ts: 9, token: 1, token_nop: None };
    let nop = Feedback::Nop { ts: 9, token: 1 };
    let worst = NetFenceHeader::regular(6, mon, Some(mon));
    assert_eq!(worst.encoded_len(), 28, "worst case header is 28 bytes");
    let common = NetFenceHeader::regular(6, nop, Some(nop));
    assert_eq!(common.nominal_len(), 20, "common case accounted as 20 bytes");
    // §4.6: 92-byte request packet = 40 TCP/IP + 28 NetFence + 24 Passport.
    assert_eq!(40 + worst.encoded_len() + PASSPORT_HEADER_LEN, 92);
}
