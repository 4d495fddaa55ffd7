#include "trace_export.hh"

#include <ostream>

#include "common/json_writer.hh"

namespace mcd {
namespace obs {

void
TraceExporter::complete(std::string name, std::string category, int tid,
                        Tick start, Tick dur, std::string args)
{
    if (!on)
        return;
    TraceEvent e;
    e.phase = 'X';
    e.tid = tid;
    e.ts = start;
    e.dur = dur;
    e.name = std::move(name);
    e.category = std::move(category);
    e.args = std::move(args);
    evts.push_back(std::move(e));
}

void
TraceExporter::instant(std::string name, std::string category, int tid,
                       Tick ts, std::string args)
{
    if (!on)
        return;
    TraceEvent e;
    e.phase = 'i';
    e.tid = tid;
    e.ts = ts;
    e.name = std::move(name);
    e.category = std::move(category);
    e.args = std::move(args);
    evts.push_back(std::move(e));
}

void
TraceExporter::counter(std::string name, const char *series, int tid,
                       Tick ts, double value)
{
    if (!on)
        return;
    TraceEvent e;
    e.phase = 'C';
    e.tid = tid;
    e.ts = ts;
    e.name = std::move(name);
    e.args = json::member(series, json::number(value));
    evts.push_back(std::move(e));
}

namespace {

/** The process and thread name records Chrome uses for its lanes. */
void
writeMetadata(json::Writer &w, int pid, int tid, const char *kind,
              const std::string &value)
{
    w.beginObject(json::Inline)
        .field("ph", "M").field("pid", pid).field("tid", tid)
        .field("name", kind);
    w.key("args").beginObject(json::Inline)
        .field("name", value).endObject();
    w.endObject();
}

} // namespace

void
writeChromeTrace(std::ostream &os,
                 const std::vector<TraceProcess> &processes)
{
    json::Writer w(os);
    w.beginObject().key("traceEvents").beginArray();
    for (std::size_t p = 0; p < processes.size(); ++p) {
        const TraceProcess &proc = processes[p];
        int pid = static_cast<int>(p) + 1;
        writeMetadata(w, pid, 0, "process_name", proc.name);
        for (int d = 0; d < numDomains; ++d) {
            writeMetadata(w, pid, d, "thread_name",
                          domainName(static_cast<Domain>(d)));
        }
        if (!proc.trace)
            continue;
        // Picoseconds land on the trace's microsecond axis exactly.
        for (const TraceEvent &e : proc.trace->events()) {
            w.beginObject(json::Inline)
                .field("ph", std::string_view(&e.phase, 1))
                .field("pid", pid).field("tid", e.tid)
                .key("ts").raw(json::fixedPoint(e.ts, 6));
            if (e.phase == 'X')
                w.key("dur").raw(json::fixedPoint(e.dur, 6));
            if (e.phase == 'i')
                w.field("s", "t");
            w.field("name", e.name);
            if (!e.category.empty())
                w.field("cat", e.category);
            if (!e.args.empty())
                w.key("args").raw("{" + e.args + "}");
            w.endObject();
        }
    }
    w.endArray().field("displayTimeUnit", "ns").endObject();
    os << '\n';
}

} // namespace obs
} // namespace mcd
