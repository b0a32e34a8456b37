//===- support/Telemetry.cpp - Per-site RC event attribution --------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <cstdio>

namespace perceus {

const char *rcEventName(RcEvent E) {
  switch (E) {
  case RcEvent::DupCall:
    return "dup";
  case RcEvent::DropCall:
    return "drop";
  case RcEvent::DecRefCall:
    return "decref";
  case RcEvent::IsUniqueCall:
    return "is_unique";
  case RcEvent::Alloc:
    return "alloc";
  case RcEvent::Free:
    return "free";
  case RcEvent::ReuseHit:
    return "reuse_hit";
  case RcEvent::ReuseMiss:
    return "reuse_miss";
  case RcEvent::BoxAlloc:
    return "box_alloc";
  case RcEvent::BoxFree:
    return "box_free";
  }
  return "?";
}

StatsSink::~StatsSink() = default;

void CountingSink::record(RcEvent E, size_t Bytes) {
  ++Counts[static_cast<unsigned>(E)];
  switch (E) {
  case RcEvent::Alloc:
  case RcEvent::BoxAlloc:
    ShadowLive += Bytes;
    ShadowPeak = std::max(ShadowPeak, ShadowLive);
    break;
  case RcEvent::Free:
  case RcEvent::BoxFree:
    // A free larger than the shadow balance means the heap freed bytes
    // the sink never saw allocated — clamp so the mismatch shows up as
    // a live-byte discrepancy rather than wraparound.
    ShadowLive -= std::min(ShadowLive, Bytes);
    break;
  default:
    break;
  }
}

SiteTableSink::Row &SiteTableSink::rowFor(const void *Site) {
  if (!Site)
    return Orphan;
  if (Site == LastSite && LastSlot < Rows.size())
    return Rows[LastSlot];
  auto [It, Inserted] = Index.try_emplace(Site, Rows.size());
  if (Inserted) {
    Row R;
    R.Site = Site;
    R.Label = CurLabel ? CurLabel : "?";
    R.Loc = CurLoc;
    Rows.push_back(std::move(R));
  }
  LastSite = Site;
  LastSlot = It->second;
  return Rows[LastSlot];
}

void SiteTableSink::record(RcEvent E, size_t Bytes) {
  Row &R = rowFor(CurSite);
  ++R.Counts[static_cast<unsigned>(E)];
  if (E == RcEvent::Alloc)
    R.Bytes += Bytes;
}

void SiteTableSink::writeJson(JsonWriter &W) const {
  auto emitRow = [&W](const Row &R, size_t Ordinal, bool Attributed) {
    W.beginObject();
    if (Attributed) {
      // The row's ordinal, not the site's address: addresses differ
      // from process to process, the order sites first record in does not.
      W.member("site", "s" + std::to_string(Ordinal));
      W.member("label", std::string_view(R.Label));
      W.member("line", R.Loc.Line);
      W.member("col", R.Loc.Col);
    } else {
      W.key("site").null();
      W.member("label", "unattributed");
      W.member("line", 0u);
      W.member("col", 0u);
    }
    for (unsigned I = 0; I < NumRcEvents; ++I)
      W.member(rcEventName(static_cast<RcEvent>(I)), R.Counts[I]);
    W.member("bytes", R.Bytes);
    W.endObject();
  };

  W.beginArray();
  for (size_t I = 0; I != Rows.size(); ++I)
    emitRow(Rows[I], I, /*Attributed=*/true);
  bool OrphanUsed = false;
  for (uint64_t C : Orphan.Counts)
    OrphanUsed |= C != 0;
  if (OrphanUsed)
    emitRow(Orphan, 0, /*Attributed=*/false);
  W.endArray();
}

std::string SiteTableSink::toText() const {
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-14s %5s %5s  %8s %8s %8s %8s %8s %8s\n",
                "label", "line", "col", "dup", "drop", "decref", "alloc",
                "reuse+", "bytes");
  Out += Line;
  auto emit = [&](const Row &R, const char *Label) {
    std::snprintf(
        Line, sizeof(Line),
        "%-14s %5u %5u  %8llu %8llu %8llu %8llu %8llu %8llu\n", Label,
        R.Loc.Line, R.Loc.Col,
        (unsigned long long)R.Counts[(unsigned)RcEvent::DupCall],
        (unsigned long long)R.Counts[(unsigned)RcEvent::DropCall],
        (unsigned long long)R.Counts[(unsigned)RcEvent::DecRefCall],
        (unsigned long long)R.Counts[(unsigned)RcEvent::Alloc],
        (unsigned long long)R.Counts[(unsigned)RcEvent::ReuseHit],
        (unsigned long long)R.Bytes);
    Out += Line;
  };
  for (const Row &R : Rows)
    emit(R, R.Label.c_str());
  for (uint64_t C : Orphan.Counts)
    if (C != 0) {
      emit(Orphan, "<unattributed>");
      break;
    }
  return Out;
}

} // namespace perceus
