#!/usr/bin/env bash
# AddressSanitizer over the whole workspace test suite.
#
# Every workspace crate (and the vendored ones) is built instrumented:
# heap buffers come from ASan's allocator with poisoned redzones, so a
# SIMD body that loads or stores past the end of its slice, a stack
# overflow in instrumented code, a use after free and a leak fail the
# run. The standard library is the prebuilt, uninstrumented one (no
# `-Zbuild-std`), so only its intercepted calls (memcpy, memmove,
# memset, …) are checked inside it. DESIGN.md §14 "Sanitizers" lists
# what this leg does not see.
#
# The explicit `--target` keeps the sanitizer flags off build scripts
# and proc macros, which run on the host. Extra arguments go to
# `cargo test` (e.g. `ci/asan.sh -p ncl-tensor`).
#
# Usage: ci/asan.sh [cargo test args…]   (needs a nightly toolchain)
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=address"
export RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -Zsanitizer=address"
exec cargo +nightly test --offline --workspace --target x86_64-unknown-linux-gnu "$@"
