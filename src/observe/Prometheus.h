//===- observe/Prometheus.h - Prometheus text-format exporter ---*- C++ -*-===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a MetricsRegistry in the Prometheus text exposition format
/// (version 0.0.4) so the service's `metrics --format=prom` verb and
/// `ipse-cli metrics-dump` plug straight into standard scrapers:
///
///   # TYPE ipse_tenant_opens counter
///   ipse_tenant_opens 12
///   # TYPE ipse_tenant_flush_us histogram
///   ipse_tenant_flush_us_bucket{le="1"} 0
///   ...
///   ipse_tenant_flush_us_bucket{le="+Inf"} 12
///   ipse_tenant_flush_us_sum 48211
///   ipse_tenant_flush_us_count 12
///
/// Registry names use '.' separators; Prometheus names allow only
/// [a-zA-Z0-9_:], so names are sanitized ('.' and '-' become '_') and
/// prefixed "ipse_".  LatencyHistograms map onto native Prometheus
/// histograms: the power-of-two bucket bounds become cumulative `le`
/// labels (dropping all-empty trailing buckets keeps the series compact), the
/// overflow bucket is `+Inf`, and `_sum` / `_count` come from the
/// histogram's own accumulators.
///
/// Labels: a registry name may carry a `{key=value,...}` suffix with one
/// or more comma-separated pairs (the multi-tenant service registers
/// e.g. "tenant.edits{tenant=acme}", build info uses several pairs); the
/// exporter splits it off, sanitizes the base name and keys, and renders
/// a proper label block:
///
///   ipse_tenant_edits{tenant="acme"} 12
///   ipse_build_info{version="0.10",isa="avx2",observe="on"} 1
///
/// Series sharing a base name therefore aggregate across label values in
/// Prometheus exactly as intended.  The JSON export keeps the full
/// suffixed name as its object key (label values are restricted to
/// JSON-safe characters by the registering code).
///
//===----------------------------------------------------------------------===//

#ifndef IPSE_OBSERVE_PROMETHEUS_H
#define IPSE_OBSERVE_PROMETHEUS_H

#include <string>
#include <string_view>

namespace ipse {
namespace observe {

class MetricsRegistry;

/// Sanitizes \p Name into a legal Prometheus metric name with the
/// "ipse_" prefix: characters outside [a-zA-Z0-9_:] become '_'.
std::string prometheusName(std::string_view Name);

/// Renders \p Reg in Prometheus text exposition format.  Each metric is
/// read once with relaxed loads (same consistency as toJson()).
std::string prometheusText(const MetricsRegistry &Reg);

} // namespace observe
} // namespace ipse

#endif // IPSE_OBSERVE_PROMETHEUS_H
