/**
 * @file
 * Offline-trained table-lookup DVFS controller.
 *
 * The learned-policy direction of the DFS literature, distilled to
 * its deployable core: all the "learning" happens offline, and what
 * ships is a small lookup table indexed by the quantized observation
 * — (mean queue occupancy bucket) x (occupancy trend) — whose cells
 * hold operating-point step deltas. At runtime the controller is one
 * table read per observation: no floating-point law, no gains to
 * tune, and trivially auditable.
 *
 * The table was fitted offline against the attack/decay
 * oracle traces on the profiling runs: near-empty queues decay fast,
 * mid-range queues hold or drift with the trend, rising occupancy is
 * attacked proportionally to how full the queue already is, and the
 * top bucket saturates to full speed.
 *
 * Deterministic; the front end stays pinned unless scaleFrontEnd.
 */

#ifndef MCD_CONTROL_TABLE_POLICY_HH
#define MCD_CONTROL_TABLE_POLICY_HH

#include "control/controller.hh"

namespace mcd {

/** Quantization and interval knobs of the table policy. */
struct TablePolicyParams
{
    /** Control interval per domain (ps). */
    Tick interval = fromMicroseconds(2.5);

    /** Occupancy change below which the trend counts as flat. */
    double trendThreshold = 0.05;

    /** Scale the front end too (default: pinned). */
    bool scaleFrontEnd = false;
};

class TablePolicyController : public PointController
{
  public:
    explicit TablePolicyController(const TablePolicyParams &params = {},
                                   const DvfsTable &table = {});

    const char *name() const override { return "table"; }

    const TablePolicyParams &params() const { return prm; }

  private:
    int next(int di, int at, double u, double prev) override;

    TablePolicyParams prm;
};

} // namespace mcd

#endif // MCD_CONTROL_TABLE_POLICY_HH
