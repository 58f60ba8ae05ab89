//! Hostile directory-tree depth: a 10k-deep storage chain must surface a
//! typed `LimitExceeded`, never stack exhaustion — the tree walk is
//! iterative, so the cap is semantic, not a recursion guard.

use vbadet_ole::{Budget, OleBuilder, OleError, OleFile, OleLimits};

/// Builds a compound file whose directory tree is a storage chain `depth`
/// levels deep with a single stream at the bottom.
fn deep_chain(depth: usize) -> Vec<u8> {
    let mut path = String::new();
    for _ in 0..depth {
        path.push_str("d/");
    }
    path.push_str("leaf");
    let mut b = OleBuilder::new();
    b.add_stream(&path, b"bottom").unwrap();
    b.build()
}

#[test]
fn ten_k_deep_directory_chain_is_a_typed_limit_breach() {
    let bytes = deep_chain(10_000);
    let ole = OleFile::parse(&bytes).unwrap();
    assert!(matches!(
        ole.stream_paths(),
        Err(OleError::LimitExceeded {
            what: "directory depth",
            ..
        })
    ));
}

#[test]
fn chain_at_the_cap_still_walks() {
    let limits = OleLimits {
        max_dir_depth: 40,
        ..OleLimits::default()
    };
    let bytes = deep_chain(40);
    let ole = OleFile::parse_budgeted(&bytes, limits, Budget::unlimited()).unwrap();
    let paths = ole.stream_paths().unwrap();
    assert_eq!(paths.len(), 1);
    assert!(paths[0].ends_with("/leaf"));

    let too_deep = deep_chain(41);
    let ole = OleFile::parse_budgeted(&too_deep, limits, Budget::unlimited()).unwrap();
    assert!(matches!(
        ole.stream_paths(),
        Err(OleError::LimitExceeded {
            what: "directory depth",
            limit: 40,
        })
    ));
}
