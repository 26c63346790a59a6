// Wire-taint annotations: the vocabulary of the fifth static-analysis
// layer (tools/wire_taint.py).
//
// The conversion gauntlet (wire_lint -> wire_taint -> plan verifier ->
// tval -> concurrency contracts) proves the *plans and emitted code*
// correct; these annotations mark the *parsing code* that builds those
// plans from hostile bytes, so the taint checker can walk raw wire values
// (lengths, offsets, counts, format ids) from the point they leave a
// receive buffer to every pointer-arithmetic, size, subscript or loop
// bound they feed — and demand a validation step in between.
//
//   WIRE_TAINTED       on a function: this function ingests wire bytes.
//                      Every pointer/span/buffer parameter is attacker
//                      data, every endian load inside the body produces a
//                      tainted value, and the function's return value is
//                      tainted at its call sites.
//   WIRE_TAINTED       on a parameter: just that parameter carries wire
//                      bytes (or a wire-derived value).
//   WIRE_SANITIZER     on a function: calling it with a tainted value (or
//                      on a tainted object) validates that value — e.g.
//                      fmt::FormatDesc::validate(), verify::verify_status.
//                      The checker treats arguments as clean afterwards.
//   WIRE_TRUSTED_CAST(x, why)
//                      expression-level escape hatch: `x` is wire-derived
//                      but proven safe for a reason the checker cannot see
//                      (the string is for the reader and the tool's
//                      report; it is not compiled into anything).
//
// Under clang the function/parameter macros expand to
// __attribute__((annotate(...))) so the annotations survive into the AST
// for AST-based tools. Under GCC and MSVC they expand to nothing.
// wire_taint.py binds them lexically, the same toolchain story as
// tools/affinity_check.py, so the analysis does not depend on which
// compiler built the tree.
#pragma once

#if defined(__clang__)
#define WIRE_TAINTED __attribute__((annotate("pbio_wire_tainted")))
#define WIRE_SANITIZER __attribute__((annotate("pbio_wire_sanitizer")))
#else
#define WIRE_TAINTED
#define WIRE_SANITIZER
#endif

// The cast form is compiler-independent: it must stay usable in constant
// expressions and around lvalues, so it is the identity in every build.
// tools/wire_taint.py recognizes the token and clears taint from `x`;
// wire_lint R8 treats it like an inline ok-marker inside tainted regions.
#define WIRE_TRUSTED_CAST(x, why) (x)
