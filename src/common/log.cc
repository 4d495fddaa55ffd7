#include "log.hh"

namespace mcd {

namespace {
// Build the whole line first and emit it with one stdio call, so
// concurrent warnings from worker threads can never interleave
// mid-line (each fwrite holds stderr's lock for the full message).
void
emitLine(const char *prefix, const std::string &msg)
{
    std::string line(prefix);
    line += msg;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
}
} // namespace

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    throw PanicError(msg);
}

void
warn(const std::string &msg)
{
    emitLine("warn: ", msg);
}

void
inform(const std::string &msg)
{
    emitLine("info: ", msg);
}

} // namespace mcd
