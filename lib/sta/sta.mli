(** Static timing analysis, fresh or aging-aware.

    Arrival times are propagated over the combinational DAG between
    flip-flops: maximum arrivals (with per-cell max delays and clk-to-Q max)
    bound setup slack at every DFF [D] pin against the next clock edge;
    minimum arrivals bound hold slack against the same edge.  Per-domain
    clock-arrival times come from a {!Clock_tree.t}, so aging-induced clock
    skew between gated and free-running subtrees is visible to the hold
    check — the mechanism behind the paper's FPU hold violations.

    Violating *paths* (not just endpoints) are recovered by a backward
    depth-first search with arrival-time pruning, capped to keep enumeration
    tractable; Vega's Error Lifting keeps one representative path per unique
    (startpoint, endpoint) pair, mirroring Section 5.2.1.

    Every query compiles the netlist and its timing source into flat
    arrays (one [cell_delay] call per cell, one [clock_arrival_ps] call
    per DFF) and runs on them; no result is kept across calls.  Queries
    bump the telemetry counters [sta.sweeps] ({!analyze} and
    {!endpoint_pairs} calls), [sta.cone_nets] (nets over all per-endpoint
    DP cones) and [sta.delay_fills] ([cell_delay] calls), and open no
    span. *)

type startpoint =
  | From_dff of int  (** launching DFF cell id *)
  | From_input of string * int  (** primary-input port bit *)

type endpoint = At_dff of int  (** capturing DFF cell id *)

type check = Setup | Hold

type path = {
  start : startpoint;
  finish : endpoint;
  through : int list;  (** combinational cell ids, start to finish *)
  delay_ps : float;  (** data arrival at the endpoint [D] pin *)
  slack_ps : float;  (** negative iff violating *)
  check : check;
}

type endpoint_slack = {
  ep : endpoint;
  setup_slack_ps : float;
  hold_slack_ps : float;
}

type report = {
  clock_period_ps : float;
  endpoint_slacks : endpoint_slack list;
  setup_violations : path list;  (** worst-first *)
  hold_violations : path list;
  wns_setup_ps : float;  (** 0 when no endpoint violates *)
  wns_hold_ps : float;
  truncated : bool;  (** true if path enumeration hit the cap *)
}

(** How the analysis obtains delays and clock arrivals. *)
type timing_source = {
  cell_delay : Netlist.cell -> Cell.timing;
  dff_timing : Cell.dff_timing;
  clock_arrival_ps : int -> float;  (** by clock domain *)
  input_arrival_ps : float;  (** data arrival of primary inputs after the edge *)
}

val fresh_timing :
  ?derate:float -> ?clock_tree:Clock_tree.t -> Cell.Library.t -> timing_source
(** Unaged timing: library delays scaled by [derate] (default 1.0, the
    signoff-corner pessimism knob), clock arrivals from [clock_tree]
    (default {!Clock_tree.single_domain}) using fresh buffer delays. *)

val aged_timing :
  ?derate:float ->
  ?clock_tree:Clock_tree.t ->
  ?toggle_of_net:(Netlist.net -> float) ->
  sp_of_net:(Netlist.net -> float) ->
  years:float ->
  Aging.Timing_library.t ->
  timing_source
(** Aging-aware timing: each cell's max delay is scaled by the
    aging-library degradation factor at the signal probability of its
    output net; clock-tree buffers are aged with their segments' activity
    SP (min delays stay fresh — aging only slows transistors down).

    With [toggle_of_net] (switching activity per net, e.g.
    {!Sim.toggle_rate}), the electromigration extension also derates each
    cell's max delay by {!Aging.em_delay_factor} — BTI stresses the idlest
    cells, EM the busiest nets. *)

val analyze :
  ?constrain_inputs:bool ->
  ?max_violating_paths:int ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  report
(** Run setup and hold analysis on every DFF endpoint.  At most
    [max_violating_paths] (default 10_000) violating paths are enumerated
    per check; [report.truncated] records whether the cap was hit.

    By default primary-input-launched paths are unconstrained
    ([constrain_inputs = false]): module-level analysis treats the upstream
    pipeline registers feeding the module as out of scope, exactly like an
    STA run without input-delay constraints.  With [constrain_inputs],
    inputs arrive at [timing.input_arrival_ps] and participate in both
    checks. *)

val endpoint_pairs :
  ?constrain_inputs:bool ->
  ?skip:(startpoint -> endpoint -> check -> bool) ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  (startpoint * endpoint * check * float) list
(** Exact worst slack for every (startpoint, endpoint) register pair and
    check, computed by per-endpoint dynamic programming over the fan-in
    cone — immune to the combinatorial path-count explosion that bounds
    {!analyze}'s enumeration.  One tuple per connected pair and check.

    Pairs for which [skip] returns [true] (default: none) are dropped
    before any cone traversal — an endpoint whose pairs are all skipped
    costs nothing.  {!Check.Spbound} uses this to prune statically-safe
    pairs from the phase-1 sweep. *)

val violating_pairs :
  ?constrain_inputs:bool ->
  ?skip:(startpoint -> endpoint -> check -> bool) ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  (startpoint * endpoint * check * float) list
(** The negative-slack subset of {!endpoint_pairs}, worst first — the exact
    list of unique aging-prone pairs Error Lifting consumes.  [skip] is
    sound to use exactly when skipped pairs are proven non-violating. *)

val unique_pairs : path list -> ((startpoint * endpoint) * path) list
(** Group violating paths by (startpoint, endpoint) keeping the
    worst-slack representative of each pair, worst-first — the filtering
    Vega applies before test-case generation. *)

val pair_path :
  ?constrain_inputs:bool ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  startpoint ->
  endpoint ->
  check ->
  path option
(** The single worst path of one (startpoint, endpoint) pair: the same
    per-endpoint dynamic program as {!endpoint_pairs} followed by an
    argmax walk that reconstructs the extremal path's cells, so — unlike
    {!analyze}'s enumeration — it is immune to the path-count cap and
    returns the path whether or not it violates.  [None] when no
    combinational path connects the pair (or the startpoint is an
    unconstrained primary input).  The netlist repair pass uses this as
    its path oracle when choosing where to rewrite. *)

val render_report : Netlist.t -> report -> string
(** Signoff-style textual rendering: WNS summary, the violating paths
    (capped at 20 per check), and the tightest endpoints. *)

val describe_startpoint : Netlist.t -> startpoint -> string
val describe_endpoint : Netlist.t -> endpoint -> string
val describe_path : Netlist.t -> path -> string
(** ["$4 -> $7 -> $8 -> $10 (setup, slack -46.0 ps)"]-style rendering. *)
