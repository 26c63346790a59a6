// Traced-run replays on a workload's own format pairs.
//
// The reader's set-up happens inside Reader/Context calls, so the traced
// run attributes it by calling each layer's public function on the same
// inputs, one span per call: fmt::decode_meta, Context::register_format,
// convert::compile_plan, verify::verify_plan, the vcode::CompiledConvert
// constructor (JIT, plus tval when it is compiled in),
// Context::try_conversion against a cold and a warm artifact cache, and a
// FormatServiceClient lookup. It then times the engines on the sample
// records — DCG, the interpreter and the mpilite unpack baseline — and
// checks DCG and interpreter output against the oracle.
#pragma once

#include <vector>

#include "common.h"
#include "inputs.h"

namespace perfbench {

void replay_layers(const std::vector<const PairInputs*>& pairs, Report& rep);

}  // namespace perfbench
