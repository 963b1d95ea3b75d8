#include "asyncit/obs/exporter.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "asyncit/obs/trace_recorder.hpp"
#include "asyncit/support/json.hpp"

namespace asyncit::obs {

namespace {

/// Display lane (tid) per event family — one merged rank renders as a
/// process with stable, readably-named tracks.
int lane_of(EventType t) {
  switch (t) {
    case EventType::kBlockUpdate: return 0;
    case EventType::kFrameSend:
    case EventType::kFrameRecv:
    case EventType::kFrameReject:
    case EventType::kFrameDrop:
    case EventType::kInversion: return 1;
    case EventType::kQueueDepth:
    case EventType::kRedial: return 2;
    case EventType::kMembership:
    case EventType::kProbe: return 3;
    default: return 4;
  }
}

const char* lane_name(int lane) {
  switch (lane) {
    case 0: return "updates";
    case 1: return "frames";
    case 2: return "transport";
    case 3: return "membership";
    default: return "control";
  }
}

}  // namespace

std::size_t write_chrome_trace(std::ostream& os, std::vector<Event>& events,
                               const ExportMeta& meta) {
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.t_ns < b.t_ns; });

  // `out` goes to the stream in ~64 KiB pieces: memory stays bounded and,
  // once `out` has grown, no event allocates.
  constexpr std::size_t kChunk = 64 * 1024;
  std::string out;
  out.reserve(kChunk + 1024);
  JsonWriter w(out);
  const auto name_track = [&](const char* what, int tid,
                              std::string_view name) {
    w.begin_object().key("name").value(what).key("ph").value("M")
        .key("pid").value(meta.rank).key("tid").value(tid)
        .key("args").begin_object().key("name").value(name).end_object()
        .end_object();
  };
  w.begin_object().key("traceEvents").begin_array();
  name_track("process_name", 0,
             meta.label.empty() ? std::string_view("asyncit") : meta.label);
  for (int lane = 0; lane <= 4; ++lane)
    name_track("thread_name", lane, lane_name(lane));

  char name[48];
  for (const Event& e : events) {
    const double ts_us = double(e.t_ns) / 1e3;
    w.begin_object();
    if (e.type == EventType::kBlockUpdate) {
      const double dur_us = std::max(0.0, e.v * 1e6);
      std::snprintf(name, sizeof name, "update b%u", unsigned(e.a));
      w.key("name").value(name).key("ph").value("X")
          .key("ts").value(std::max(0.0, ts_us - dur_us))
          .key("dur").value(dur_us);
    } else if (e.type == EventType::kQueueDepth) {
      std::snprintf(name, sizeof name, "queue q%u peer%u", unsigned(e.sub),
                    unsigned(e.a));
      w.key("name").value(name).key("ph").value("C").key("ts").value(ts_us);
    } else {
      w.key("name").value(to_string(e.type)).key("ph").value("i")
          .key("s").value("t").key("ts").value(ts_us);
    }
    w.key("pid").value(e.rank).key("tid").value(lane_of(e.type));
    w.key("args").begin_object();
    if (e.type == EventType::kBlockUpdate)
      w.key("block").value(e.a).key("tag").value(e.b)
          .key("partial").value(e.sub);
    else if (e.type == EventType::kQueueDepth)
      w.key("depth").value(e.b);
    else
      w.key("sub").value(e.sub).key("a").value(e.a).key("b").value(e.b)
          .key("v").value(e.v);
    w.end_object().end_object();
    if (out.size() >= kChunk) {
      os.write(out.data(), static_cast<std::streamsize>(out.size()));
      out.clear();
    }
  }

  w.end_array().key("otherData").begin_object()
      .key("schema")
      .value(meta.windowed ? "asyncit-trace/2" : "asyncit-trace/1")
      .key("rank").value(meta.rank)
      .key("epoch_realtime_ns").value(meta.epoch_realtime_ns)
      .key("events_dropped").value(meta.events_dropped);
  if (meta.windowed)
    w.key("window_seq").value(meta.window_seq)
        .key("events_dropped_window").value(meta.window_dropped);
  w.end_object().end_object();
  out += '\n';
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
  return events.size();
}

bool export_chrome_trace_file(const std::string& path,
                              const ExportMeta& meta) {
  std::ofstream os(path);
  if (!os) return false;
  std::vector<Event> events;
  TraceRecorder::instance().snapshot(&events);
  write_chrome_trace(os, events, meta);
  return bool(os);
}

}  // namespace asyncit::obs
