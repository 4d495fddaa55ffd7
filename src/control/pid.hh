/**
 * @file
 * PID queue-feedback DVFS controller.
 *
 * Classic control-loop feedback applied to the MCD queues (after the
 * PID-per-core direction of the CMP DVFS literature): each control
 * interval the error between a domain queue's mean occupancy and a
 * fixed setpoint drives a proportional-integral-derivative law whose
 * output is a continuous operating-point level. A queue running above
 * the setpoint means the domain is falling behind (raise frequency);
 * below it the domain has slack (lower frequency). The integral term
 * removes steady-state error — a phase that needs exactly 700 MHz
 * settles there instead of oscillating around it — and is clamped so
 * its contribution can never exceed the table span (anti-windup).
 *
 * Fully deterministic: the law is pure double arithmetic over the
 * observation sequence; identical observations produce identical
 * requests. The front end stays pinned (the paper's choice) unless
 * scaleFrontEnd is set.
 */

#ifndef MCD_CONTROL_PID_HH
#define MCD_CONTROL_PID_HH

#include <array>

#include "control/controller.hh"

namespace mcd {

/** Gains and setpoint of the PID occupancy loop. */
struct PidParams
{
    /** Control interval per domain (ps). */
    Tick interval = fromMicroseconds(2.5);

    /** Target mean queue-fill fraction. */
    double setpoint = 0.45;

    double kp = 48.0;   //!< proportional gain (points per unit error)
    double ki = 12.0;   //!< integral gain (points per unit error-sum)
    double kd = 8.0;    //!< derivative gain (points per unit error-delta)

    /** Scale the front end too (default: pinned, as in the paper). */
    bool scaleFrontEnd = false;
};

class PidController : public PointController
{
  public:
    explicit PidController(const PidParams &params = {},
                           const DvfsTable &table = {});

    const char *name() const override { return "pid"; }

    const PidParams &params() const { return prm; }

  private:
    int first(int di, int at) override;
    int next(int di, int at, double u, double prev) override;

    PidParams prm;

    std::array<double, numDomains> base{};  //!< latched initial index
    std::array<double, numDomains> integral{};
};

} // namespace mcd

#endif // MCD_CONTROL_PID_HH
