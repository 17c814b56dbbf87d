// Golden-string tests for the exposition formats. The registry snapshot is
// sorted by (name, label serialization), and both exporters format doubles
// with %.15g, so the full output of a hand-built registry is deterministic
// and can be compared verbatim.

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace imcf {
namespace obs {
namespace {

/// One registry exercising every metric kind, label sets, and the
/// histogram bucket expansion.
MetricRegistry* BuildSampleRegistry() {
  auto* registry = new MetricRegistry();
  registry->GetCounter("imcf_test_commands_total", "Commands seen.")
      ->Increment(3);
  registry
      ->GetCounter("imcf_test_decisions_total", "Decisions by reason.",
                   {{"reason", "allow"}})
      ->Increment(2);
  registry
      ->GetCounter("imcf_test_decisions_total", "Decisions by reason.",
                   {{"reason", "drop"}})
      ->Increment(1);
  registry->GetGauge("imcf_test_depth", "Queue depth.")->Set(2.5);
  Histogram* hist = registry->GetHistogram("imcf_test_latency_ns",
                                           "Span latency.", {1.0, 2.0, 4.0});
  hist->Observe(1.0);    // le="1"
  hist->Observe(3.0);    // le="4"
  hist->Observe(100.0);  // +Inf
  return registry;
}

TEST(ExportTest, PrometheusTextGolden) {
  MetricRegistry* registry = BuildSampleRegistry();
  EXPECT_EQ(ToPrometheusText(*registry),
            "# HELP imcf_test_commands_total Commands seen.\n"
            "# TYPE imcf_test_commands_total counter\n"
            "imcf_test_commands_total 3\n"
            "# HELP imcf_test_decisions_total Decisions by reason.\n"
            "# TYPE imcf_test_decisions_total counter\n"
            "imcf_test_decisions_total{reason=\"allow\"} 2\n"
            "imcf_test_decisions_total{reason=\"drop\"} 1\n"
            "# HELP imcf_test_depth Queue depth.\n"
            "# TYPE imcf_test_depth gauge\n"
            "imcf_test_depth 2.5\n"
            "# HELP imcf_test_latency_ns Span latency.\n"
            "# TYPE imcf_test_latency_ns histogram\n"
            "imcf_test_latency_ns_bucket{le=\"1\"} 1\n"
            "imcf_test_latency_ns_bucket{le=\"2\"} 1\n"
            "imcf_test_latency_ns_bucket{le=\"4\"} 2\n"
            "imcf_test_latency_ns_bucket{le=\"+Inf\"} 3\n"
            "imcf_test_latency_ns_sum 104\n"
            "imcf_test_latency_ns_count 3\n");
  delete registry;
}

TEST(ExportTest, PrometheusExemplarSuffixGolden) {
  // Tagged observations render the OpenMetrics exemplar suffix on their
  // bucket line (including +Inf); untagged buckets stay plain v0.0.4, so
  // the BuildSampleRegistry golden above is unaffected.
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_latency_ns",
                                          "Span latency.", {1.0, 2.0});
  hist->Observe(1.0);
  hist->Observe(1.5, /*exemplar_trace_id=*/0xABC);
  hist->Observe(9.0, /*exemplar_trace_id=*/0x1);
  EXPECT_EQ(
      ToPrometheusText(registry),
      "# HELP imcf_test_latency_ns Span latency.\n"
      "# TYPE imcf_test_latency_ns histogram\n"
      "imcf_test_latency_ns_bucket{le=\"1\"} 1\n"
      "imcf_test_latency_ns_bucket{le=\"2\"} 2"
      " # {trace_id=\"0x0000000000000abc\"} 1.5\n"
      "imcf_test_latency_ns_bucket{le=\"+Inf\"} 3"
      " # {trace_id=\"0x0000000000000001\"} 9\n"
      "imcf_test_latency_ns_sum 11.5\n"
      "imcf_test_latency_ns_count 3\n");
}

TEST(ExportTest, JsonExemplarArrayGolden) {
  MetricRegistry registry;
  Histogram* hist = registry.GetHistogram("imcf_test_latency_ns",
                                          "Span latency.", {1.0, 2.0});
  hist->Observe(1.5, /*exemplar_trace_id=*/0xABC);
  const std::string json = ToJson(registry);
  EXPECT_NE(json.find("\"exemplars\":[{\"le\":\"2\","
                      "\"trace_id\":\"0x0000000000000abc\","
                      "\"value\":1.5}]"),
            std::string::npos)
      << json;
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  MetricRegistry registry;
  registry
      .GetCounter("imcf_test_escaped_total", "Escaping.",
                  {{"job", "a\"b\\c\nd"}})
      ->Increment(1);
  EXPECT_EQ(ToPrometheusText(registry),
            "# HELP imcf_test_escaped_total Escaping.\n"
            "# TYPE imcf_test_escaped_total counter\n"
            "imcf_test_escaped_total{job=\"a\\\"b\\\\c\\nd\"} 1\n");
}

TEST(ExportTest, PrometheusEscapesHostileTenantLabel) {
  // Tenant ids are client-chosen strings; one used as a label value must
  // not be able to break out of the sample line.
  MetricRegistry registry;
  registry
      .GetCounter("imcf_serve_tenant_responses_total", "Per-tenant.",
                  {{"tenant", "evil\"} 999\ninjected_metric 1\n#\\"}})
      ->Increment(4);
  EXPECT_EQ(ToPrometheusText(registry),
            "# HELP imcf_serve_tenant_responses_total Per-tenant.\n"
            "# TYPE imcf_serve_tenant_responses_total counter\n"
            "imcf_serve_tenant_responses_total{tenant="
            "\"evil\\\"} 999\\ninjected_metric 1\\n#\\\\\"} 4\n");
}

TEST(ExportTest, PrometheusEscapesHelpText) {
  // HELP is free text per the exposition format, but backslash and newline
  // must be escaped or the line structure breaks.
  MetricRegistry registry;
  registry
      .GetCounter("imcf_test_help_total",
                  "Path C:\\temp\nsecond \"quoted\" line")
      ->Increment(1);
  EXPECT_EQ(ToPrometheusText(registry),
            "# HELP imcf_test_help_total "
            "Path C:\\\\temp\\nsecond \"quoted\" line\n"
            "# TYPE imcf_test_help_total counter\n"
            "imcf_test_help_total 1\n");
}

TEST(ExportTest, JsonGolden) {
  MetricRegistry* registry = BuildSampleRegistry();
  EXPECT_EQ(
      ToJson(*registry),
      "[{\"name\":\"imcf_test_commands_total\",\"type\":\"counter\","
      "\"value\":3},"
      "{\"name\":\"imcf_test_decisions_total\",\"type\":\"counter\","
      "\"labels\":{\"reason\":\"allow\"},\"value\":2},"
      "{\"name\":\"imcf_test_decisions_total\",\"type\":\"counter\","
      "\"labels\":{\"reason\":\"drop\"},\"value\":1},"
      "{\"name\":\"imcf_test_depth\",\"type\":\"gauge\",\"value\":2.5},"
      "{\"name\":\"imcf_test_latency_ns\",\"type\":\"histogram\","
      "\"count\":3,\"sum\":104,\"mean\":34.6666666666667,"
      "\"quantiles\":{\"p50\":4,\"p90\":4,\"p99\":4},"
      "\"bounds\":[1,2,4],\"buckets\":[1,0,1,1]}]");
  delete registry;
}

TEST(ExportTest, EmptyRegistry) {
  MetricRegistry registry;
  EXPECT_EQ(ToPrometheusText(registry), "");
  EXPECT_EQ(ToJson(registry), "[]");
}

TEST(JsonWriterTest, NestedContainersAndEscapes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("tab\there");
  w.Key("items").BeginArray().Int(1).Int(-2).Double(0.5).EndArray();
  w.Key("flag").Bool(true);
  w.Key("missing").Null();
  w.Key("nested").BeginObject().Key("k").String("v").EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"tab\\there\",\"items\":[1,-2,0.5],"
            "\"flag\":true,\"missing\":null,\"nested\":{\"k\":\"v\"}}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(1.0 / 0.0);
  w.Double(-1.0 / 0.0);
  w.Double(0.0 / 0.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

}  // namespace
}  // namespace obs
}  // namespace imcf
