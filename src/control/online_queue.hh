/**
 * @file
 * Online queue-driven attack/decay DVFS controller.
 *
 * The paper's offline shaker/clustering tool is an oracle: it sees the
 * whole trace before choosing frequencies. This controller is the
 * practical online mechanism the paper frames that oracle as a bound
 * for (and that the authors' follow-up work built): each control
 * interval it reads the mean occupancy of a domain's primary queue —
 * issue queues for the execution domains, LSQ for load/store — and
 * applies an attack/decay law:
 *
 *  - attack: a significant occupancy *change* since the previous
 *    interval means the workload shifted; move the operating point
 *    several table steps in the same direction at once. A queue close
 *    to full (above highWater) jumps straight to full speed — back
 *    pressure there is already costing performance.
 *  - decay: a quiet interval with a lightly filled queue means the
 *    current speed is more than sufficient; probe downward by a small
 *    number of table steps (faster when the queue is nearly empty —
 *    an idle domain burns clock-tree energy for nothing). A steady
 *    queue between holdWater and highWater holds its point: the
 *    domain has settled at a speed that keeps the queue usefully
 *    full without back pressure.
 *
 * The feedback closes through the queue itself: decaying below the
 * workload's needs backs the queue up, which triggers an attack back
 * up. The front end stays pinned at its initial frequency (the
 * paper's choice) unless scaleFrontEnd is set.
 *
 * The controller is fully deterministic: identical observation
 * sequences produce identical request sequences.
 */

#ifndef MCD_CONTROL_ONLINE_QUEUE_HH
#define MCD_CONTROL_ONLINE_QUEUE_HH

#include "control/controller.hh"

namespace mcd {

/** Tuning parameters of the attack/decay law. */
struct OnlineQueueParams
{
    /** Control interval per domain (ps). */
    Tick interval = fromMicroseconds(2.5);

    /** Occupancy-change fraction that triggers an attack. */
    double attackThreshold = 0.08;

    /** Operating-point steps moved per attack. */
    int attackPoints = 6;

    /** Steps dropped per quiet interval. */
    int decayPoints = 1;

    /** Steps dropped per near-idle interval. */
    int idleDecayPoints = 4;

    /** Mean occupancy above which the domain jumps to full speed. */
    double highWater = 0.70;

    /** Mean occupancy below which quiet intervals decay; between
     *  here and highWater a steady queue holds its operating point
     *  (the domain has settled at a speed that keeps the queue
     *  usefully full without back pressure). */
    double holdWater = 0.30;

    /** Mean occupancy below which the fast decay applies. */
    double idleWater = 0.04;

    /** Scale the front end too (the paper pins it; default off). */
    bool scaleFrontEnd = false;
};

class OnlineQueueController : public PointController
{
  public:
    explicit OnlineQueueController(const OnlineQueueParams &params = {},
                                   const DvfsTable &table = {});

    const char *name() const override { return "online-queue"; }

    const OnlineQueueParams &params() const { return prm; }

  private:
    int next(int di, int at, double u, double prev) override;

    OnlineQueueParams prm;
};

} // namespace mcd

#endif // MCD_CONTROL_ONLINE_QUEUE_HH
