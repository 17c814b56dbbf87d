#include "serve/introspection.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "obs/accounting/cost_ledger.h"
#include "obs/json_writer.h"
#include "obs/slo/slo_engine.h"
#include "obs/status_server/status_server.h"
#include "serve/fleet_service.h"

namespace imcf {
namespace serve {

namespace {

constexpr const char* kJsonContentType = "application/json; charset=utf-8";

std::string StatuszJson(const FleetService& service,
                        const obs::StatusServer& server) {
  const FleetOptions& options = service.options();
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("service").String("imcf-fleet");
  json.Key("options").BeginObject();
  json.Key("shards").Int(options.shards);
  json.Key("workers").Int(options.workers);
  json.Key("queue_capacity").Int(options.queue_capacity);
  json.Key("status_port").Int(server.port());
  json.EndObject();
  json.Key("tenants").Int(static_cast<int64_t>(service.registry().size()));
  json.Key("queued").Int(static_cast<int64_t>(service.queued()));
  json.Key("queue_depths").BeginArray();
  for (size_t depth : service.queue_depths()) {
    json.Int(static_cast<int64_t>(depth));
  }
  json.EndArray();
  json.Key("last_drain_time").Int(service.last_drain_time());
  json.Key("status_requests_served").Int(server.requests_served());
  json.EndObject();
  return json.str();
}

/// Parses the "k" query parameter (row cap); absent or malformed reads 0,
/// which TopK treats as "all tenants".
size_t ParseK(const obs::HttpRequest& request) {
  auto it = request.query.find("k");
  if (it == request.query.end()) return 0;
  return static_cast<size_t>(std::strtoull(it->second.c_str(), nullptr, 10));
}

obs::HttpResponse BadRequest(const std::string& message) {
  obs::HttpResponse response;
  response.status = 400;
  response.body = message + "\n";
  return response;
}

/// Strict /tenantz parameter validation: a typo'd sort key or a garbage row
/// cap gets a 400 with the valid forms spelled out, not a silently
/// defaulted page the operator mistakes for the one they asked for. The
/// sort key is checked by obs::ParseCostSortKey, which owns its names.
bool ValidTenantzK(const std::string& value) {
  if (value.empty() || value.size() > 9) return false;  // bounded, no sign
  for (char c : value) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

void RegisterIntrospectionHandlers(obs::StatusServer* server,
                                   FleetService* service) {
  if (server == nullptr || service == nullptr) return;
  server->Handle("/statusz", [service, server](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = kJsonContentType;
    response.body = StatuszJson(*service, *server);
    return response;
  });
  server->Handle("/tenantz", [service](const obs::HttpRequest& request) {
    obs::CostSortKey key = obs::CostSortKey::kCpu;
    auto it = request.query.find("sort");
    if (it != request.query.end()) {
      const std::optional<obs::CostSortKey> parsed =
          obs::ParseCostSortKey(it->second);
      if (!parsed.has_value()) {
        return BadRequest("bad sort parameter '" + it->second +
                          "': want sort=cpu|plans|sheds");
      }
      key = *parsed;
    }
    auto kit = request.query.find("k");
    if (kit != request.query.end() && !ValidTenantzK(kit->second)) {
      return BadRequest("bad k parameter '" + kit->second +
                        "': want a small non-negative integer");
    }
    obs::HttpResponse response;
    response.content_type = kJsonContentType;
    response.body = service->cost_ledger().ToJson(ParseK(request), key);
    return response;
  });
  server->Handle("/conflictz", [service](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = kJsonContentType;
    response.body = service->registry().conflict_analyzer().ToJson();
    return response;
  });
  server->Handle("/sloz", [service](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = kJsonContentType;
    // Evaluated at the fleet's clock, not wall time: the burn windows
    // slide on sim seconds, and the last drain is "now" in that domain.
    response.body = service->slo_engine().ToJson(service->last_drain_time());
    return response;
  });
}

}  // namespace serve
}  // namespace imcf
