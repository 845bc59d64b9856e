#include "fusion/report.h"

#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"

namespace vp::fusion {

namespace {

using obs::json::Array;
using obs::json::Object;
using obs::json::Value;
using obs::json::require_number;

constexpr double kRateEpsilon = 1e-9;

Value optional_rate(const std::optional<double>& rate) {
  return rate.has_value() ? Value(*rate) : Value(nullptr);
}

// Rates may be null (undefined: no window had the denominator) but must
// be present, and a numeric value must sit inside [0, 1].
bool require_rate(const Value& object, const char* key,
                  const std::string& where, std::string* error) {
  const Value* v = object.find(key);
  if (v == nullptr || (!v->is_number() && !v->is_null())) {
    return fail(error,
                where + ": missing or non-rate (number|null) \"" + key + "\"");
  }
  if (v->is_number() &&
      (v->as_number() < 0.0 || v->as_number() > 1.0 ||
       !std::isfinite(v->as_number()))) {
    return fail(error, where + ": \"" + key + "\" outside [0, 1]");
  }
  return true;
}

}  // namespace

Value build_fusion_bench_report(
    const std::string& binary, std::uint64_t seed,
    const std::vector<FusionBenchConfigResult>& configs) {
  Object doc;
  doc.emplace("schema", Value("voiceprint.fusion_bench/v1"));
  doc.emplace("binary", Value(binary));
  doc.emplace("seed", Value(seed));
  doc.emplace("hardware_threads", Value(hardware_threads()));
  Array rows;
  for (const FusionBenchConfigResult& c : configs) {
    Object row;
    row.emplace("label", Value(c.label));
    row.emplace("observers", Value(c.observers));
    row.emplace("density_per_km", Value(c.density_per_km));
    row.emplace("attackers", Value(c.attackers));
    row.emplace("sim_time_s", Value(c.sim_time_s));
    row.emplace("rounds_delivered", Value(c.rounds_delivered));
    row.emplace("rounds_fused", Value(c.rounds_fused));
    row.emplace("rounds_expired", Value(c.rounds_expired));
    row.emplace("rounds_pending", Value(c.rounds_pending));
    row.emplace("epochs_closed", Value(c.epochs_closed));
    row.emplace("votes_cast", Value(c.votes_cast));
    row.emplace("single_dr", optional_rate(c.single_dr));
    row.emplace("single_fpr", optional_rate(c.single_fpr));
    row.emplace("single_dr_samples", Value(c.single_dr_samples));
    row.emplace("single_fpr_samples", Value(c.single_fpr_samples));
    row.emplace("fused_dr", optional_rate(c.fused_dr));
    row.emplace("fused_fpr", optional_rate(c.fused_fpr));
    row.emplace("fused_dr_samples", Value(c.fused_dr_samples));
    row.emplace("fused_fpr_samples", Value(c.fused_fpr_samples));
    row.emplace("cpvsad_dr", optional_rate(c.cpvsad_dr));
    row.emplace("cpvsad_fpr", optional_rate(c.cpvsad_fpr));
    row.emplace("trust_min", Value(c.trust_min));
    row.emplace("trust_max", Value(c.trust_max));
    row.emplace("honest_identity_trust_min",
                Value(c.honest_identity_trust_min));
    rows.push_back(Value(std::move(row)));
  }
  doc.emplace("configs", Value(std::move(rows)));
  return Value(std::move(doc));
}

bool validate_fusion_bench(const Value& report, std::string* error) {
  if (!report.is_object()) return fail(error, "report is not an object");
  const Value* schema = report.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "voiceprint.fusion_bench/v1") {
    return fail(error, "schema is not \"voiceprint.fusion_bench/v1\"");
  }
  const Value* binary = report.find("binary");
  if (binary == nullptr || !binary->is_string()) {
    return fail(error, "missing or non-string \"binary\"");
  }
  if (!require_number(report, "seed", "report", error)) return false;
  if (!require_number(report, "hardware_threads", "report", error)) {
    return false;
  }
  const Value* configs = report.find("configs");
  if (configs == nullptr || !configs->is_array()) {
    return fail(error, "missing or non-array \"configs\"");
  }
  if (configs->as_array().empty()) return fail(error, "\"configs\" is empty");
  std::size_t index = 0;
  for (const Value& row : configs->as_array()) {
    const std::string where = "configs[" + std::to_string(index++) + "]";
    if (!row.is_object()) return fail(error, where + " is not an object");
    const Value* label = row.find("label");
    if (label == nullptr || !label->is_string()) {
      return fail(error, where + ": missing or non-string \"label\"");
    }
    for (const char* key :
         {"observers", "density_per_km", "attackers", "sim_time_s",
          "rounds_delivered", "rounds_fused", "rounds_expired",
          "rounds_pending", "epochs_closed", "votes_cast",
          "single_dr_samples", "single_fpr_samples", "fused_dr_samples",
          "fused_fpr_samples", "trust_min", "trust_max",
          "honest_identity_trust_min"}) {
      if (!require_number(row, key, where, error)) return false;
    }
    for (const char* key : {"single_dr", "single_fpr", "fused_dr",
                            "fused_fpr", "cpvsad_dr", "cpvsad_fpr"}) {
      if (!require_rate(row, key, where, error)) return false;
    }
    // The fusion conservation law: every delivered round was fused into a
    // closed epoch, expired against one, or still buffered — a harness
    // that loses rounds is rejected here, not discovered in a dashboard.
    if (row.find("rounds_delivered")->as_number() !=
        row.find("rounds_fused")->as_number() +
            row.find("rounds_expired")->as_number() +
            row.find("rounds_pending")->as_number()) {
      return fail(error,
                  where + ": rounds_delivered != fused + expired + pending");
    }
    // Trust scores are bounded by construction; a report outside [0, 1]
    // means the TrustStore clamp broke.
    const double trust_min = row.find("trust_min")->as_number();
    const double trust_max = row.find("trust_max")->as_number();
    const double honest_min =
        row.find("honest_identity_trust_min")->as_number();
    if (trust_min < 0.0 || trust_max > 1.0 || trust_min > trust_max) {
      return fail(error, where + ": trust bounds outside [0, 1]");
    }
    if (honest_min < 0.0 || honest_min > 1.0) {
      return fail(error,
                  where + ": honest_identity_trust_min outside [0, 1]");
    }
    // The corroboration claim (the bench's reason to exist): with enough
    // observers to out-vote a mistake, fusion must not be less sensitive
    // or less precise than the single-observer average from the same run.
    const bool multi_observer = row.find("observers")->as_number() >= 3;
    const Value* single_dr = row.find("single_dr");
    const Value* fused_dr = row.find("fused_dr");
    if (multi_observer && single_dr->is_number() && fused_dr->is_number() &&
        fused_dr->as_number() < single_dr->as_number() - kRateEpsilon) {
      return fail(error, where + ": fused_dr below single_dr");
    }
    const Value* single_fpr = row.find("single_fpr");
    const Value* fused_fpr = row.find("fused_fpr");
    if (multi_observer && single_fpr->is_number() &&
        fused_fpr->is_number() &&
        fused_fpr->as_number() > single_fpr->as_number() + kRateEpsilon) {
      return fail(error, where + ": fused_fpr above single_fpr");
    }
  }
  return true;
}

}  // namespace vp::fusion
