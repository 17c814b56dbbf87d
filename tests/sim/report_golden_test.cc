// Golden reports: every SimulationReport field of all six policies on the
// flat, house and dorms datasets over a 72-hour window, under four setups
// (hourly slots; 3-hour slots with carryover; the full carbon tilt; and
// transient faults plus an admin chain drop rule), and the prototype week.
// Doubles are compared by bit pattern against hex-float literals, so any
// change to the slot step's arithmetic or its order fails here.
//
// F_T (`ft_seconds`) is the planners' wall time and is not pinned. On a
// mismatch the test prints the actual row as a table literal.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "controller/prototype.h"
#include "fault/fault_plan.h"
#include "sim/simulation.h"

namespace imcf {
namespace sim {
namespace {

struct GoldenRow {
  const char* setup;
  const char* dataset;
  const char* policy;
  double fce_pct;
  double fe_kwh;
  double budget_kwh;
  bool within_budget;
  int64_t slots;
  int64_t activations;
  int64_t commands_issued;
  int64_t commands_dropped;
  int64_t commands_failed;
  double mean_adopted_fraction;
  double co2_kg;
};

// clang-format off
const GoldenRow kGolden[] = {
    {"hourly", "flat", "NR", 0x1.0cce80b0cdacbp+6, 0x0p+0, 0x1.8p+4, true, 72, 117, 117, 117, 0, 0x0p+0, 0x0p+0},
    {"hourly", "flat", "IFTTT", 0x1.5929929929926p+3, 0x1.103edc276c8b4p+6, 0x1.8p+4, false, 72, 117, 144, 0, 0, 0x1p+0, 0x1.04c4f2cf726fp+5},
    {"hourly", "flat", "EP", 0x1.1223df339fbap+5, 0x1.774b929fffffcp+4, 0x1.8p+4, true, 72, 117, 117, 55, 0, 0x1.0ed7303b5cc0fp-1, 0x1.694b9f2f8b6a4p+3},
    {"hourly", "flat", "MR", 0x0p+0, 0x1.0d847697ae147p+6, 0x1.8p+4, false, 72, 117, 117, 0, 0, 0x1p+0, 0x1.02f1f8bedbac2p+5},
    {"hourly", "flat", "SA", 0x1.1223df339fbap+5, 0x1.774b929fffffcp+4, 0x1.8p+4, true, 72, 117, 117, 55, 0, 0x1.0ed7303b5cc0fp-1, 0x1.694b9f2f8b6a4p+3},
    {"hourly", "flat", "GA", 0x1.1223df339fbap+5, 0x1.774b929fffffcp+4, 0x1.8p+4, true, 72, 117, 117, 55, 0, 0x1.0ed7303b5cc0fp-1, 0x1.694b9f2f8b6a4p+3},
    {"hourly", "house", "NR", 0x1.f74e21d44391bp+5, 0x0p+0, 0x1.cp+5, true, 72, 468, 468, 468, 0, 0x0p+0, 0x0p+0},
    {"hourly", "house", "IFTTT", 0x1.1251b1c8b0666p+5, 0x1.c80c4aeae1479p+6, 0x1.cp+5, false, 72, 468, 576, 0, 0, 0x1p+0, 0x1.b3d15027f92d3p+5},
    {"hourly", "house", "EP", 0x1.d1ef49361191p+4, 0x1.bfbd0620b1ccp+5, 0x1.cp+5, true, 72, 468, 468, 246, 0, 0x1.f6b981dae6077p-2, 0x1.ac4b1338bc2b8p+4},
    {"hourly", "house", "MR", 0x0p+0, 0x1.2ffac7d62b2e4p+7, 0x1.cp+5, false, 72, 468, 468, 0, 0, 0x1p+0, 0x1.240c58801d28bp+6},
    {"hourly", "house", "SA", 0x1.22d0811c99592p+5, 0x1.bf4d882742e49p+5, 0x1.cp+5, true, 72, 468, 468, 266, 0, 0x1.d37a6f4de9bd3p-2, 0x1.ac0bcea08b0a4p+4},
    {"hourly", "house", "GA", 0x1.024e9803fb65ep+5, 0x1.bf4fd85382024p+5, 0x1.cp+5, true, 72, 468, 468, 258, 0, 0x1.de9bd37a6f4dfp-2, 0x1.ac20be8aa9051p+4},
    {"hourly", "dorms", "NR", 0x1.10bf38357a2d8p+6, 0x0p+0, 0x1.068p+10, true, 72, 11571, 11571, 11571, 0, 0x0p+0, 0x0p+0},
    {"hourly", "dorms", "IFTTT", 0x1.df0e6c0b100d4p+3, 0x1.6d3b22283852bp+11, 0x1.068p+10, false, 72, 11571, 14400, 0, 0, 0x1p+0, 0x1.5da0f0c6b403dp+10},
    {"hourly", "dorms", "EP", 0x1.f0bd0ad9db04ep+4, 0x1.067dbbe1944a9p+10, 0x1.068p+10, true, 72, 11571, 11571, 5656, 0, 0x1.1314370a03464p-1, 0x1.f63e16c70eb93p+8},
    {"hourly", "dorms", "MR", 0x1.abd38902a8bcep-4, 0x1.5d41366c859b9p+11, 0x1.068p+10, false, 72, 11571, 11571, 0, 0, 0x1p+0, 0x1.4f345a8a002a9p+10},
    {"hourly", "dorms", "SA", 0x1.47ade0930f2ebp+5, 0x1.067fe03286bc7p+10, 0x1.068p+10, true, 72, 11571, 11571, 6930, 0, 0x1.bd2a65ea8deb2p-2, 0x1.f64375ddfce74p+8},
    {"hourly", "dorms", "GA", 0x1.385ffb4fbf101p+5, 0x1.067fdbd576bc6p+10, 0x1.068p+10, true, 72, 11571, 11571, 6549, 0, 0x1.d98e29e2031c2p-2, 0x1.f6432411edeaap+8},
    {"slot3", "flat", "NR", 0x1.0cce80b0cdacbp+6, 0x0p+0, 0x1.8p+4, true, 72, 117, 51, 51, 0, 0x0p+0, 0x0p+0},
    {"slot3", "flat", "IFTTT", 0x1.483483483483p+3, 0x1.10fd52f020c4ap+6, 0x1.8p+4, false, 72, 117, 48, 0, 0, 0x1p+0, 0x1.0577a868ad4f2p+5},
    {"slot3", "flat", "EP", 0x1.082481f0af0afp+5, 0x1.7bf938ce147aap+4, 0x1.8p+4, true, 72, 117, 51, 18, 0, 0x1.2p-1, 0x1.6841f89047934p+3},
    {"slot3", "flat", "MR", 0x0p+0, 0x1.0d847697ae147p+6, 0x1.8p+4, false, 72, 117, 51, 0, 0, 0x1p+0, 0x1.02f1f8bedbac2p+5},
    {"slot3", "flat", "SA", 0x1.082481f0af0afp+5, 0x1.7bf938ce147aap+4, 0x1.8p+4, true, 72, 117, 51, 18, 0, 0x1.2p-1, 0x1.6841f89047934p+3},
    {"slot3", "flat", "GA", 0x1.082481f0af0afp+5, 0x1.7bf938ce147aap+4, 0x1.8p+4, true, 72, 117, 51, 18, 0, 0x1.2p-1, 0x1.6841f89047934p+3},
    {"slot3", "house", "NR", 0x1.f74e21d44391bp+5, 0x0p+0, 0x1.cp+5, true, 72, 468, 204, 204, 0, 0x0p+0, 0x0p+0},
    {"slot3", "house", "IFTTT", 0x1.156c21e54c8b2p+5, 0x1.c7472c328f5c1p+6, 0x1.cp+5, false, 72, 468, 192, 0, 0, 0x1p+0, 0x1.b32699ed8bd83p+5},
    {"slot3", "house", "EP", 0x1.c63df373e8e2ep+4, 0x1.f53e449b5fb3fp+5, 0x1.cp+5, false, 72, 468, 204, 89, 0, 0x1.1p-1, 0x1.dca88f98b7e5dp+4},
    {"slot3", "house", "MR", 0x0p+0, 0x1.2ffac7d62b2e4p+7, 0x1.cp+5, false, 72, 468, 204, 0, 0, 0x1p+0, 0x1.240c58801d28bp+6},
    {"slot3", "house", "SA", 0x1.1e19a49bec78cp+5, 0x1.e247bfe9565cfp+5, 0x1.cp+5, false, 72, 468, 204, 105, 0, 0x1.d8e38e38e38e5p-2, 0x1.cb0bfa90ae4fcp+4},
    {"slot3", "house", "GA", 0x1.023f624fe388ap+5, 0x1.c88f06cd29664p+5, 0x1.cp+5, false, 72, 468, 204, 105, 0, 0x1.e38e38e38e38fp-2, 0x1.b17de8f112804p+4},
    {"slot3", "dorms", "NR", 0x1.10bf38357a2d8p+6, 0x0p+0, 0x1.068p+10, true, 72, 11571, 4983, 4983, 0, 0x0p+0, 0x0p+0},
    {"slot3", "dorms", "IFTTT", 0x1.d99bf73edecp+3, 0x1.6db9b18461486p+11, 0x1.068p+10, false, 72, 11571, 4800, 0, 0, 0x1p+0, 0x1.5e196c7665fb9p+10},
    {"slot3", "dorms", "EP", 0x1.e479e67c2dd74p+4, 0x1.230ee4c9ac658p+10, 0x1.068p+10, false, 72, 11571, 4983, 2182, 0, 0x1.1a0ecba57652ap-1, 0x1.16133bb0fc34ep+9},
    {"slot3", "dorms", "MR", 0x1.abd38902a8bcep-4, 0x1.5d41366c859b9p+11, 0x1.068p+10, false, 72, 11571, 4983, 0, 0, 0x1p+0, 0x1.4f345a8a002a9p+10},
    {"slot3", "dorms", "SA", 0x1.3d4c6ff7bfe7dp+5, 0x1.17417cc32c0b6p+10, 0x1.068p+10, false, 72, 11571, 4983, 2693, 0, 0x1.cbcccfd3cd32cp-2, 0x1.0ae8c9bc0e19p+9},
    {"slot3", "dorms", "GA", 0x1.2d5b7f97bd539p+5, 0x1.1268cc5b44e5p+10, 0x1.068p+10, false, 72, 11571, 4983, 2631, 0, 0x1.db52f98b4f2a3p-2, 0x1.066ea32f3980bp+9},
    {"carbon", "flat", "NR", 0x1.0cce80b0cdacbp+6, 0x0p+0, 0x1.8p+4, true, 72, 117, 117, 117, 0, 0x0p+0, 0x0p+0},
    {"carbon", "flat", "IFTTT", 0x1.5929929929926p+3, 0x1.103edc276c8b4p+6, 0x1.8p+4, false, 72, 117, 144, 0, 0, 0x1p+0, 0x1.04c4f2cf726fp+5},
    {"carbon", "flat", "EP", 0x1.127970fabc2bdp+5, 0x1.7725521d70a39p+4, 0x1.8p+4, true, 72, 117, 117, 55, 0, 0x1.19f89467e251ap-1, 0x1.648825718c65bp+3},
    {"carbon", "flat", "MR", 0x0p+0, 0x1.0d847697ae147p+6, 0x1.8p+4, false, 72, 117, 117, 0, 0, 0x1p+0, 0x1.02f1f8bedbac2p+5},
    {"carbon", "flat", "SA", 0x1.127970fabc2bdp+5, 0x1.7725521d70a39p+4, 0x1.8p+4, true, 72, 117, 117, 55, 0, 0x1.19f89467e251ap-1, 0x1.648825718c65bp+3},
    {"carbon", "flat", "GA", 0x1.127970fabc2bdp+5, 0x1.7725521d70a39p+4, 0x1.8p+4, true, 72, 117, 117, 55, 0, 0x1.19f89467e251ap-1, 0x1.648825718c65bp+3},
    {"carbon", "house", "NR", 0x1.f74e21d44391bp+5, 0x0p+0, 0x1.cp+5, true, 72, 468, 468, 468, 0, 0x0p+0, 0x0p+0},
    {"carbon", "house", "IFTTT", 0x1.1251b1c8b0666p+5, 0x1.c80c4aeae1479p+6, 0x1.cp+5, false, 72, 468, 576, 0, 0, 0x1p+0, 0x1.b3d15027f92d3p+5},
    {"carbon", "house", "EP", 0x1.ce1cbf2010302p+4, 0x1.be2330fba932p+5, 0x1.cp+5, true, 72, 468, 468, 242, 0, 0x1.fc4a33f128cfcp-2, 0x1.a8b7857206778p+4},
    {"carbon", "house", "MR", 0x0p+0, 0x1.2ffac7d62b2e4p+7, 0x1.cp+5, false, 72, 468, 468, 0, 0, 0x1p+0, 0x1.240c58801d28bp+6},
    {"carbon", "house", "SA", 0x1.22e0db380e32dp+5, 0x1.bf29377a03248p+5, 0x1.cp+5, true, 72, 468, 468, 271, 0, 0x1.ca33f128cfc4ap-2, 0x1.a9e4b19886db7p+4},
    {"carbon", "house", "GA", 0x1.fbc4ece0ed7e9p+4, 0x1.bff4f77aaac26p+5, 0x1.cp+5, true, 72, 468, 468, 248, 0, 0x1.f4de9bd37a6f5p-2, 0x1.aaa86a58431bdp+4},
    {"carbon", "dorms", "NR", 0x1.10bf38357a2d8p+6, 0x0p+0, 0x1.068p+10, true, 72, 11571, 11571, 11571, 0, 0x0p+0, 0x0p+0},
    {"carbon", "dorms", "IFTTT", 0x1.df0e6c0b100d4p+3, 0x1.6d3b22283852bp+11, 0x1.068p+10, false, 72, 11571, 14400, 0, 0, 0x1p+0, 0x1.5da0f0c6b403dp+10},
    {"carbon", "dorms", "EP", 0x1.f07a5b944fb7ap+4, 0x1.067f5d2a540d7p+10, 0x1.068p+10, true, 72, 11571, 11571, 5653, 0, 0x1.13614a3d94f3ep-1, 0x1.f3d7a4ae09cf5p+8},
    {"carbon", "dorms", "MR", 0x1.abd38902a8bcep-4, 0x1.5d41366c859b9p+11, 0x1.068p+10, false, 72, 11571, 11571, 0, 0, 0x1p+0, 0x1.4f345a8a002a9p+10},
    {"carbon", "dorms", "SA", 0x1.495958f842ecfp+5, 0x1.067f6e6d26092p+10, 0x1.068p+10, true, 72, 11571, 11571, 6912, 0, 0x1.c03e06b2bd6ddp-2, 0x1.f3d90c742e07dp+8},
    {"carbon", "dorms", "GA", 0x1.3abe4ff42a5a9p+5, 0x1.067fc1d944b4fp+10, 0x1.068p+10, true, 72, 11571, 11571, 6589, 0, 0x1.d75dcecab7549p-2, 0x1.f3da676aa669fp+8},
    {"faults", "flat", "NR", 0x1.0cce80b0cdacbp+6, 0x0p+0, 0x1.8p+4, true, 72, 117, 117, 117, 0, 0x0p+0, 0x0p+0},
    {"faults", "flat", "IFTTT", 0x1.8b9ea724a64aap+5, 0x1.9926e978d4fe5p+3, 0x1.8p+4, true, 72, 117, 144, 76, 4, 0x1p+0, 0x1.8e00b5d38b8bfp+2},
    {"faults", "flat", "EP", 0x1.5c4db21555556p+5, 0x1.670a3d70a3d71p+3, 0x1.8p+4, true, 72, 117, 117, 65, 2, 0x1.f128cfc4a33f1p-1, 0x1.59cf547668b13p+2},
    {"faults", "flat", "MR", 0x1.5c4db21555556p+5, 0x1.670a3d70a3d71p+3, 0x1.8p+4, true, 72, 117, 117, 65, 2, 0x1p+0, 0x1.59cf547668b13p+2},
    {"faults", "flat", "SA", 0x1.5c4db21555556p+5, 0x1.670a3d70a3d71p+3, 0x1.8p+4, true, 72, 117, 117, 65, 2, 0x1.f128cfc4a33f1p-1, 0x1.59cf547668b13p+2},
    {"faults", "flat", "GA", 0x1.5c4db21555556p+5, 0x1.670a3d70a3d71p+3, 0x1.8p+4, true, 72, 117, 117, 65, 2, 0x1.f128cfc4a33f1p-1, 0x1.59cf547668b13p+2},
    {"faults", "house", "NR", 0x1.f74e21d44391bp+5, 0x0p+0, 0x1.cp+5, true, 72, 468, 468, 468, 0, 0x0p+0, 0x0p+0},
    {"faults", "house", "IFTTT", 0x1.5b885071e217cp+5, 0x1.4b05c5b851ebap+6, 0x1.cp+5, false, 72, 468, 576, 109, 37, 0x1p+0, 0x1.3c15f960d84a7p+5},
    {"faults", "house", "EP", 0x1.f46f21c45360ap+4, 0x1.b66666802d1b1p+5, 0x1.cp+5, true, 72, 468, 468, 248, 20, 0x1.43b5cc0ed7304p-1, 0x1.a335a174d29b9p+4},
    {"faults", "house", "MR", 0x1.d946ae11dcac7p+3, 0x1.bc24a88f056bep+6, 0x1.cp+5, false, 72, 468, 468, 93, 30, 0x1p+0, 0x1.a9c25df0b7486p+5},
    {"faults", "house", "SA", 0x1.1d9ebb7170914p+5, 0x1.bf8a70f9a5b8ap+5, 0x1.cp+5, true, 72, 468, 468, 260, 18, 0x1.181dae6076b98p-1, 0x1.ad27e7581c21fp+4},
    {"faults", "house", "GA", 0x1.0d9a172def3a2p+5, 0x1.baf378350d745p+5, 0x1.cp+5, true, 72, 468, 468, 257, 17, 0x1.29bd37a6f4deap-1, 0x1.a7d4eb43a19a6p+4},
    {"faults", "dorms", "NR", 0x1.10bf38357a2d8p+6, 0x0p+0, 0x1.068p+10, true, 72, 11571, 11571, 11571, 0, 0x0p+0, 0x0p+0},
    {"faults", "dorms", "IFTTT", 0x1.2dcd87996e48fp+4, 0x1.526caf368ccd7p+11, 0x1.068p+10, false, 72, 11571, 14400, 1048, 976, 0x1p+0, 0x1.4403e77f93632p+10},
    {"faults", "dorms", "EP", 0x1.0186f164f30ecp+5, 0x1.06556cef28c58p+10, 0x1.068p+10, true, 72, 11571, 11571, 5891, 417, 0x1.1cc2aa8f517a4p-1, 0x1.f60664f5215b2p+8},
    {"faults", "dorms", "MR", 0x1.4107d51074148p+2, 0x1.439c8d552aab6p+11, 0x1.068p+10, false, 72, 11571, 11571, 837, 777, 0x1p+0, 0x1.36a91aed3addfp+10},
    {"faults", "dorms", "SA", 0x1.486a432fa7072p+5, 0x1.064a9cf9b402cp+10, 0x1.068p+10, true, 72, 11571, 11571, 6928, 324, 0x1.dbf2be99bb9d7p-2, 0x1.f61114a58b6f3p+8},
    {"faults", "dorms", "GA", 0x1.3aa1ba38bb85fp+5, 0x1.065be63bef8ebp+10, 0x1.068p+10, true, 72, 11571, 11571, 6619, 372, 0x1.f6d50ba64537cp-2, 0x1.f62a95fbe4ec6p+8},
};
// clang-format on

struct SimSetup {
  const char* name;
  void (*apply)(SimulationOptions*);
};

const SimSetup kSetups[] = {
    {"hourly", [](SimulationOptions*) {}},
    {"slot3",
     [](SimulationOptions* o) {
       o->slot_hours = 3;
       o->carryover = true;
     }},
    {"carbon", [](SimulationOptions* o) { o->carbon_alpha = 1.0; }},
    {"faults",
     [](SimulationOptions* o) {
       o->fault = fault::FaultOptions::UniformRate(0.25, /*seed=*/9);
       o->chain_setup = [](firewall::Chain* chain) {
         firewall::ChainRule rule;
         rule.address = "10.0.0.1";  // unit 0 HVAC
         rule.target = firewall::Verdict::kDrop;
         chain->Append(rule);
       };
     }},
};

// Each dataset gets roughly four fifths of its pro-rated Table II budget
// (see the datasets table below), so the planners have to drop rules.
SimulationOptions WindowOptions(trace::DatasetSpec spec, double budget_kwh) {
  SimulationOptions options;
  options.spec = std::move(spec);
  options.start = FromCivil(2014, 2, 3);
  options.hours = 72;
  options.budget_kwh = budget_kwh;
  return options;
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Literal(const char* setup, const SimulationReport& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", \"%s\", \"%s\", %s, %s, %s, %s, %" PRId64
                ", %" PRId64 ", %" PRId64 ", %" PRId64 ", %" PRId64
                ", %s, %s},",
                setup, r.dataset.c_str(), r.policy.c_str(),
                Hex(r.fce_pct).c_str(), Hex(r.fe_kwh).c_str(),
                Hex(r.budget_kwh).c_str(),
                r.within_budget ? "true" : "false", r.slots, r.activations,
                r.commands_issued, r.commands_dropped, r.commands_failed,
                Hex(r.mean_adopted_fraction).c_str(), Hex(r.co2_kg).c_str());
  return buf;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool Matches(const GoldenRow& g, const SimulationReport& r) {
  return SameBits(g.fce_pct, r.fce_pct) && SameBits(g.fe_kwh, r.fe_kwh) &&
         SameBits(g.budget_kwh, r.budget_kwh) &&
         g.within_budget == r.within_budget && g.slots == r.slots &&
         g.activations == r.activations &&
         g.commands_issued == r.commands_issued &&
         g.commands_dropped == r.commands_dropped &&
         g.commands_failed == r.commands_failed &&
         SameBits(g.mean_adopted_fraction, r.mean_adopted_fraction) &&
         SameBits(g.co2_kg, r.co2_kg);
}

const GoldenRow* FindRow(const std::string& setup, const std::string& dataset,
                         const std::string& policy) {
  for (const GoldenRow& g : kGolden) {
    if (setup == g.setup && dataset == g.dataset && policy == g.policy) {
      return &g;
    }
  }
  return nullptr;
}

TEST(ReportGoldenTest, EveryPolicyDatasetAndSetup) {
  const struct {
    trace::DatasetSpec spec;
    double budget_kwh;
  } datasets[] = {
      {trace::FlatSpec(), 24.0},
      {trace::HouseSpec(), 56.0},
      {trace::DormsSpec(), 1050.0},
  };
  const Policy policies[] = {Policy::kNoRule,        Policy::kIfttt,
                             Policy::kEnergyPlanner, Policy::kMetaRule,
                             Policy::kAnnealer,      Policy::kGenetic};
  int checked = 0;
  for (const SimSetup& setup : kSetups) {
    for (const auto& dataset : datasets) {
      SimulationOptions options =
          WindowOptions(dataset.spec, dataset.budget_kwh);
      setup.apply(&options);
      Simulator simulator(options);
      ASSERT_TRUE(simulator.Prepare().ok());
      for (const Policy policy : policies) {
        const Result<SimulationReport> report = simulator.Run(policy);
        ASSERT_TRUE(report.ok());
        const GoldenRow* golden =
            FindRow(setup.name, report->dataset, report->policy);
        if (golden == nullptr || !Matches(*golden, *report)) {
          ADD_FAILURE() << "golden row differs; actual:\n"
                        << Literal(setup.name, *report);
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 72);
}

struct GoldenResident {
  const char* name;
  double fce_pct;
  int64_t activations;
};

struct GoldenWeek {
  const char* setup;
  double fe_kwh;
  double fce_pct;
  double budget_kwh;
  bool within_budget;
  int planner_runs;
  int sensor_refreshes;
  int64_t commands_issued;
  int64_t commands_dropped;
  int64_t commands_failed;
  double config_bytes_per_user;
  GoldenResident residents[3];
};

// clang-format off
const GoldenWeek kGoldenWeeks[] = {
    {"healthy", 0x1.f813d319e0821p+6, 0x1.4b1b1f9313be6p+1, 0x1.4ap+7, true, 168, 672, 238, 11, 0, 0x1.bd55555555555p+6,
     {{"Daughter", 0x1.034f4fb05a624p+2, 63}, {"Father", 0x1.cc3ea4fc1f9bap-2, 112}, {"Mother", 0x1.3af967d7aaf3fp+2, 63}}},
    {"faults", 0x1.e1161ea6ad887p+6, 0x1.53b83ff79194bp+2, 0x1.4ap+7, true, 168, 672, 238, 21, 15, 0x1.bd55555555555p+6,
     {{"Daughter", 0x1.ede2345308cc6p+1, 63}, {"Father", 0x1.9797fb1777507p+2, 112}, {"Mother", 0x1.37d5358ce9e76p+2, 63}}},
};
// clang-format on

std::string WeekLiteral(const char* setup,
                        const controller::PrototypeReport& r) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"%s\", %s, %s, %s, %s, %d, %d, %" PRId64 ", %" PRId64
                ", %" PRId64 ", %s,\n     {",
                setup, Hex(r.fe_kwh).c_str(), Hex(r.fce_pct).c_str(),
                Hex(r.budget_kwh).c_str(),
                r.within_budget ? "true" : "false", r.planner_runs,
                r.sensor_refreshes, r.commands_issued, r.commands_dropped,
                r.commands_failed, Hex(r.config_bytes_per_user).c_str());
  out += buf;
  for (const controller::ResidentReport& rr : r.residents) {
    std::snprintf(buf, sizeof(buf), "{\"%s\", %s, %" PRId64 "}, ",
                  rr.name.c_str(), Hex(rr.fce_pct).c_str(), rr.activations);
    out += buf;
  }
  out += "}},";
  return out;
}

bool WeekMatches(const GoldenWeek& g, const controller::PrototypeReport& r) {
  if (!(SameBits(g.fe_kwh, r.fe_kwh) && SameBits(g.fce_pct, r.fce_pct) &&
        SameBits(g.budget_kwh, r.budget_kwh) &&
        g.within_budget == r.within_budget &&
        g.planner_runs == r.planner_runs &&
        g.sensor_refreshes == r.sensor_refreshes &&
        g.commands_issued == r.commands_issued &&
        g.commands_dropped == r.commands_dropped &&
        g.commands_failed == r.commands_failed &&
        SameBits(g.config_bytes_per_user, r.config_bytes_per_user) &&
        r.residents.size() == 3)) {
    return false;
  }
  for (size_t i = 0; i < 3; ++i) {
    const GoldenResident& gr = g.residents[i];
    const controller::ResidentReport& rr = r.residents[i];
    if (rr.name != gr.name || !SameBits(gr.fce_pct, rr.fce_pct) ||
        gr.activations != rr.activations) {
      return false;
    }
  }
  return true;
}

TEST(ReportGoldenTest, PrototypeWeek) {
  controller::PrototypeOptions healthy;
  controller::PrototypeOptions faulty;
  faulty.fault = fault::FaultOptions::UniformRate(0.25, /*seed=*/9);
  const struct {
    const char* name;
    const controller::PrototypeOptions* options;
  } weeks[] = {{"healthy", &healthy}, {"faults", &faulty}};
  for (const auto& week : weeks) {
    const Result<controller::PrototypeReport> report =
        controller::PrototypeStudy(*week.options).Run();
    ASSERT_TRUE(report.ok());
    const GoldenWeek* golden = nullptr;
    for (const GoldenWeek& g : kGoldenWeeks) {
      if (std::string(g.setup) == week.name) golden = &g;
    }
    if (golden == nullptr || !WeekMatches(*golden, *report)) {
      ADD_FAILURE() << "golden week differs; actual:\n"
                    << WeekLiteral(week.name, *report);
    }
  }
}

}  // namespace
}  // namespace sim
}  // namespace imcf
