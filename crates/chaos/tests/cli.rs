//! The chaos CLI refuses flags its chosen layer would silently drop.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_encompass-chaos"))
        .args(args)
        .output()
        .expect("run encompass-chaos")
        .status
        .code()
}

#[test]
fn conflicting_layer_flags_exit_2() {
    for args in [
        &["--soak", "--shards"][..],
        &["--shards", "--readers", "2"],
        &["--shards", "--dumps"],
        &["--shards", "--partitions", "2"],
        &["--soak", "--dumps"],
    ] {
        assert_eq!(
            exit_code(args),
            Some(2),
            "encompass-chaos {}",
            args.join(" ")
        );
    }
}
