// Offline introspection: the simulator has no live endpoint to scrape, so at
// the end of a run ClusterEngine renders the *same* formats the admin plane
// serves — Prometheus exposition, snapshot JSON, time-series JSON, outlier
// JSON — into files under a directory. Because every input is derived from
// virtual time and the seeded RNG, the files are byte-identical across runs
// with the same seed (held by tests/introspect_outliers_test.cc).
#ifndef PSP_SRC_INTROSPECT_OFFLINE_H_
#define PSP_SRC_INTROSPECT_OFFLINE_H_

#include <string>

#include "src/introspect/outliers.h"
#include "src/telemetry/snapshot.h"

namespace psp {

// Writes metrics.prom, snapshot.json and timeseries.json (and outliers.json
// when `outliers` is non-null) under `dir`, creating the directory if
// needed (one level). Returns "" on success, else a description of the
// first failure.
std::string WriteIntrospectionFiles(const std::string& dir,
                                    const TelemetrySnapshot& snapshot,
                                    const OutlierRecorder* outliers);

// Best-effort whole-file write; returns false on I/O failure.
bool WriteTextFile(const std::string& path, const std::string& contents);

}  // namespace psp

#endif  // PSP_SRC_INTROSPECT_OFFLINE_H_
