// TLC_HOT — the hot-path annotation behind tlc_lint's hot-path-alloc rule.
//
// Functions on the per-event / per-byte critical paths (Scheduler::step,
// the wire codec primitives, crypto verify and per-receipt hashing,
// BatchedVerifier) are marked TLC_HOT. The marker does two things:
//
//   * statically: tools/lint/tlc_lint scans every TLC_HOT function body and
//     rejects direct operator new, std::function, throw, and malloc-family
//     calls — the constructs the dynamic operator-new hook tests
//     (test_scheduler_alloc, test_batch_alloc) catch only at run time, and
//     only on the paths they happen to execute — and the OpenSSL digest
//     lookups (EVP_sha256, EVP_get_digestbyname, EVP_MD_fetch), which
//     make OpenSSL 3 fetch the algorithm again on every use;
//   * at compile time: it expands to [[gnu::hot]], so GCC/Clang place the
//     function in the hot text section and optimize it more aggressively.
//
// Cold error exits inside a hot function (precondition guards, protocol
// reject paths) stay legal via an explicit escape on the offending line:
//     throw Error{...};  // tlc-lint: allow(hot-path-alloc): <why it's cold>
// The reason is mandatory and reviewed — see DESIGN.md "Statically enforced
// invariants".
#pragma once

#define TLC_HOT [[gnu::hot]]
