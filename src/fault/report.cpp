#include "fault/report.h"

#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"

namespace vp::fault {

namespace {

using obs::json::Array;
using obs::json::Object;
using obs::json::Value;
using obs::json::require_number;

double num(const Value& object, const char* key) {
  return object.find(key)->as_number();
}

constexpr const char* kInjectorKeys[] = {
    "source_beacons", "emitted",        "dropped",        "burst_dropped",
    "duplicated",     "reordered",      "rssi_spiked",    "rssi_quantized",
    "rssi_non_finite", "rssi_stuck",    "time_skewed",    "time_regressed",
    "flood_injected",
};

constexpr const char* kServingKeys[] = {
    "offered",
    "ingested",
    "shed_rate_limited",
    "shed_identity_cap",
    "shed_out_of_order",
    "shed_session_cap",
    "shed_invalid_rssi_non_finite",
    "shed_invalid_rssi_out_of_range",
    "shed_invalid_time_non_finite",
    "shed_invalid_time_negative",
    "shed_conditioned",
    "cond_offered",
    "cond_passed",
    "cond_clamped",
    "cond_rejected",
    "rounds",
};

}  // namespace

Value build_chaos_bench_report(const std::string& binary, std::uint64_t seed,
                               const std::vector<ChaosRunResult>& runs,
                               const std::vector<CondGateResult>& cond_gates) {
  Object doc;
  doc.emplace("schema", Value("voiceprint.chaos_bench/v2"));
  doc.emplace("binary", Value(binary));
  doc.emplace("hardware_threads", Value(hardware_threads()));
  doc.emplace("seed", Value(seed));
  Array rows;
  for (const ChaosRunResult& r : runs) {
    Object row;
    row.emplace("label", Value(r.label));
    row.emplace("fault_class", Value(r.fault_class));
    row.emplace("intensity", Value(r.intensity));
    row.emplace("kill_restore_cycles", Value(r.kill_restore_cycles));
    row.emplace("source_beacons", Value(r.source_beacons));
    row.emplace("emitted", Value(r.emitted));
    row.emplace("dropped", Value(r.dropped));
    row.emplace("burst_dropped", Value(r.burst_dropped));
    row.emplace("duplicated", Value(r.duplicated));
    row.emplace("reordered", Value(r.reordered));
    row.emplace("rssi_spiked", Value(r.rssi_spiked));
    row.emplace("rssi_quantized", Value(r.rssi_quantized));
    row.emplace("rssi_non_finite", Value(r.rssi_non_finite));
    row.emplace("rssi_stuck", Value(r.rssi_stuck));
    row.emplace("time_skewed", Value(r.time_skewed));
    row.emplace("time_regressed", Value(r.time_regressed));
    row.emplace("flood_injected", Value(r.flood_injected));
    row.emplace("offered", Value(r.offered));
    row.emplace("ingested", Value(r.ingested));
    row.emplace("shed_rate_limited", Value(r.shed_rate_limited));
    row.emplace("shed_identity_cap", Value(r.shed_identity_cap));
    row.emplace("shed_out_of_order", Value(r.shed_out_of_order));
    row.emplace("shed_session_cap", Value(r.shed_session_cap));
    row.emplace("shed_invalid_rssi_non_finite",
                Value(r.shed_invalid_rssi_non_finite));
    row.emplace("shed_invalid_rssi_out_of_range",
                Value(r.shed_invalid_rssi_out_of_range));
    row.emplace("shed_invalid_time_non_finite",
                Value(r.shed_invalid_time_non_finite));
    row.emplace("shed_invalid_time_negative",
                Value(r.shed_invalid_time_negative));
    row.emplace("shed_conditioned", Value(r.shed_conditioned));
    row.emplace("cond_offered", Value(r.cond_offered));
    row.emplace("cond_passed", Value(r.cond_passed));
    row.emplace("cond_clamped", Value(r.cond_clamped));
    row.emplace("cond_rejected", Value(r.cond_rejected));
    row.emplace("rounds", Value(r.rounds));
    row.emplace("round_divergence", Value(r.round_divergence));
    row.emplace("max_divergence", Value(r.max_divergence));
    rows.push_back(Value(std::move(row)));
  }
  doc.emplace("runs", Value(std::move(rows)));
  Array gates;
  for (const CondGateResult& g : cond_gates) {
    Object gate;
    gate.emplace("fault_class", Value(g.fault_class));
    gate.emplace("intensity", Value(g.intensity));
    gate.emplace("divergence_off", Value(g.divergence_off));
    gate.emplace("divergence_on", Value(g.divergence_on));
    gates.push_back(Value(std::move(gate)));
  }
  doc.emplace("cond_gates", Value(std::move(gates)));
  return Value(std::move(doc));
}

bool validate_chaos_bench(const Value& report, std::string* error) {
  if (!report.is_object()) return fail(error, "report is not an object");
  const Value* schema = report.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "voiceprint.chaos_bench/v2") {
    return fail(error, "schema is not \"voiceprint.chaos_bench/v2\"");
  }
  const Value* binary = report.find("binary");
  if (binary == nullptr || !binary->is_string()) {
    return fail(error, "missing or non-string \"binary\"");
  }
  if (!require_number(report, "hardware_threads", "report", error) ||
      !require_number(report, "seed", "report", error)) {
    return false;
  }
  const Value* runs = report.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    return fail(error, "missing or non-array \"runs\"");
  }
  if (runs->as_array().empty()) return fail(error, "\"runs\" is empty");
  std::size_t index = 0;
  for (const Value& row : runs->as_array()) {
    const std::string where = "runs[" + std::to_string(index++) + "]";
    if (!row.is_object()) return fail(error, where + " is not an object");
    for (const char* key : {"label", "fault_class"}) {
      const Value* v = row.find(key);
      if (v == nullptr || !v->is_string()) {
        return fail(error, where + ": missing or non-string \"" + key + "\"");
      }
    }
    for (const char* key :
         {"intensity", "kill_restore_cycles", "round_divergence",
          "max_divergence"}) {
      if (!require_number(row, key, where, error)) return false;
    }
    for (const char* key : kInjectorKeys) {
      if (!require_number(row, key, where, error)) return false;
    }
    for (const char* key : kServingKeys) {
      if (!require_number(row, key, where, error)) return false;
    }
    // Injector conservation: every source, duplicated and fabricated
    // beacon is accounted for as delivered or dropped (the bench flushes
    // the reorder buffer, so nothing stays held).
    if (num(row, "source_beacons") + num(row, "duplicated") +
            num(row, "flood_injected") !=
        num(row, "emitted") + num(row, "dropped") +
            num(row, "burst_dropped")) {
      return fail(error,
                  where + ": injector conservation violated (source + "
                          "duplicated + flood != emitted + dropped + burst)");
    }
    // Serving-stack conservation: offered = ingested + every shed class.
    const double shed_sum =
        num(row, "shed_rate_limited") + num(row, "shed_identity_cap") +
        num(row, "shed_out_of_order") + num(row, "shed_session_cap") +
        num(row, "shed_invalid_rssi_non_finite") +
        num(row, "shed_invalid_rssi_out_of_range") +
        num(row, "shed_invalid_time_non_finite") +
        num(row, "shed_invalid_time_negative") +
        num(row, "shed_conditioned");
    if (num(row, "offered") != num(row, "ingested") + shed_sum) {
      return fail(error, where + ": offered != ingested + Σ shed");
    }
    // Conditioning conservation: every sample the §15 front saw left it
    // through exactly one verdict (trivially 0 == 0 on OFF runs).
    if (num(row, "cond_offered") != num(row, "cond_passed") +
                                        num(row, "cond_clamped") +
                                        num(row, "cond_rejected")) {
      return fail(error, where + ": cond_offered != passed + clamped + "
                                 "rejected");
    }
    const double divergence = num(row, "round_divergence");
    const double ceiling = num(row, "max_divergence");
    if (divergence < 0.0 || divergence > 1.0) {
      return fail(error, where + ": round_divergence outside [0, 1]");
    }
    if (ceiling < 0.0 || ceiling > 1.0) {
      return fail(error, where + ": max_divergence outside [0, 1]");
    }
    if (divergence > ceiling) {
      return fail(error, where + ": round_divergence exceeds max_divergence");
    }
  }
  // Conditioning gates (§15): every gated fault class must show a strict
  // divergence improvement with conditioning ON, and the OFF arm must
  // actually diverge — a gate over a harmless fault proves nothing.
  const Value* gates = report.find("cond_gates");
  if (gates == nullptr || !gates->is_array()) {
    return fail(error, "missing or non-array \"cond_gates\"");
  }
  index = 0;
  for (const Value& gate : gates->as_array()) {
    const std::string where = "cond_gates[" + std::to_string(index++) + "]";
    if (!gate.is_object()) return fail(error, where + " is not an object");
    const Value* cls = gate.find("fault_class");
    if (cls == nullptr || !cls->is_string()) {
      return fail(error, where + ": missing or non-string \"fault_class\"");
    }
    for (const char* key : {"intensity", "divergence_off", "divergence_on"}) {
      if (!require_number(gate, key, where, error)) return false;
    }
    const double off = num(gate, "divergence_off");
    const double on = num(gate, "divergence_on");
    if (off < 0.0 || off > 1.0 || on < 0.0 || on > 1.0) {
      return fail(error, where + ": divergence outside [0, 1]");
    }
    if (!(off > 0.0)) {
      return fail(error, where + " (" + cls->as_string() +
                             "): divergence_off is zero — the fault did not "
                             "bite, the gate is vacuous");
    }
    if (!(on < off)) {
      return fail(error, where + " (" + cls->as_string() +
                             "): conditioning did not strictly reduce "
                             "divergence");
    }
  }
  return true;
}

}  // namespace vp::fault
