// Timed calls into single layers' public entry points (traced run only).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "logm/record.hpp"
#include "net/transport.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

// Times, each as the median over repeated calls:
//   audit.local_query.<shape>_us  eval_local_indexed on the live records' P1
//                                 fragments, one pool criterion per shape
//   crypto.modexp_us              PhKey::encrypt_batch, per element
//   bignum.montmul_ns             MontgomeryContext::mont_mul_raw
//   crypto.ticket_verify_us       TicketService::authorizes
//   net.frame_ns_per_msg          encode_frame + FrameParser::feed over
//                                 messages sampled from the round
// Every timed call is a "layer" span under one "layers" phase.
std::map<std::string, double> time_layers(
    const Inputs& inputs, const std::vector<dla::logm::LogRecord>& live,
    const std::vector<dla::net::Message>& frames, Tracer& tracer);

}  // namespace perfbench
