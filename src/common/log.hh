/**
 * @file
 * Error-reporting helpers in the gem5 tradition: panic() for internal
 * invariant violations (simulator bugs), fatal() for user-visible
 * configuration errors, warn()/inform() for status messages.
 */

#ifndef MCD_COMMON_LOG_HH
#define MCD_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace mcd {

/** Thrown by fatal(): the simulation cannot continue due to user error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown by panic(): an internal invariant was violated (a bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Report an unrecoverable user/configuration error. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal simulator bug. */
[[noreturn]] void panic(const std::string &msg);

/** Report a suspicious but survivable condition. */
void warn(const std::string &msg);

/** Report a purely informational message. */
void inform(const std::string &msg);

/** Panic unless the given condition holds. */
inline void
mcdAssert(bool cond, const char *what)
{
    if (!cond)
        panic(std::string("assertion failed: ") + what);
}

} // namespace mcd

#endif // MCD_COMMON_LOG_HH
