(* The repository's end-to-end benchmark.

     bench.exe --workload paper|fleet|repair|guard --seed N --seconds S --trace 0|1

   Each workload builds its immutable inputs in a timed set-up (repeated,
   median reported), then runs whole passes through one public entry point
   of the library until the time budget is spent, checking every pass's
   output.  The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
   end-to-end metrics; traced runs alternate untraced and traced passes and
   report per-layer self times and counts (see README.md in this
   directory for the layer table and the noise figures). *)

let default_seed = 42

(* ---------- run environment ---------- *)

(* Pinned so that OCAMLRUNPARAM cannot shift alloc_mb or heap_peak_mb;
   the values are OCaml 5.1's defaults. *)
let gc_control =
  {
    (Gc.get ()) with
    Gc.minor_heap_size = 262_144;
    space_overhead = 120;
    verbose = 0;
    custom_major_ratio = 44;
    custom_minor_ratio = 100;
    custom_minor_max_size = 8192;
  }

(* The fleet pool's domain count: fixed, not [nproc], so a run on a
   bigger machine measures the same schedule. *)
let fleet_domains = 2

let pin_environment ~workload ~seed ~trace =
  Gc.set gc_control;
  let g = Gc.get () in
  Printf.printf
    "env {\"workload\": %S, \"seed\": %d, \"trace\": %b, \"cores\": %d, \"ocaml\": %S, \
     \"fleet_domains\": %d, \"gc\": {\"minor_heap_words\": %d, \"space_overhead\": %d}}\n%!"
    workload seed trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version fleet_domains g.Gc.minor_heap_size g.Gc.space_overhead

(* ---------- workloads ---------- *)

(* One pass's result.  [failed] counts items that raised, ended FF/FC, or
   failed the workload's output check; [layer_stats] are per-layer values
   read from the pass's outputs; [replay] times, from the benchmark, the
   public calls a library span runs without a child span of its own. *)
type outcome = {
  items : int;
  failed : int;
  layer_stats : (string * float) list;
  replay : unit -> replay;
}

(* A replay runs on one domain, after the traced pass, on the inputs the
   pass used; its shares split a host span's self time (see Layers). *)
and replay = {
  item_split : (string * float) list;
      (** layer -> share of the [fleet.item] span's self time *)
  sim_ns_per_eval : float option;  (** scalar [Sim] cost, to carve out of the ISS hosts *)
  direct : (string * float) list;  (** per-layer values reported as measured *)
}

let no_replay () = { item_split = []; sim_ns_per_eval = None; direct = [] }

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let check_failed ~what ~expected ~got =
  if expected <> got then begin
    Printf.eprintf "output check failed: %s: expected %s, got %s\n%!" what expected got;
    true
  end
  else false

let digest s = Digest.to_hex (Digest.string s)

(* paper: the pipeline as vega_cli runs it, ALU32 @1.005 and FPU16 @1.046,
   plus phase-3 integration into one kernel.  Item = lifted register pair. *)

(* S/UR/FF/FC tally and suite case count per unit at the recorded corners;
   the pipeline takes no seed, so these hold for every seed. *)
let paper_expected = "alu32 S=6 UR=0 FF=0 FC=0 cases=12; fpu16 S=16 UR=0 FF=0 FC=0 cases=31"

let paper ~seed:_ =
  let units =
    [
      ("alu32", Lift.alu_target ~width:32 (), 1.005);
      ("fpu16", Lift.fpu_target ~fmt:Fpu_format.binary16 (), 1.046);
    ]
  in
  let crc =
    Minic.compile ~width:32 ~fmt:Fpu_format.binary16 (Workload.find "crc").Workload.program
  in
  fun () ->
    let reports =
      List.map
        (fun (name, target, margin) ->
          ( name,
            Vega.run_workflow
              ~phase1:{ Vega.default_phase1 with Vega.clock_margin = margin }
              ~phase2:Lift.default_config target ~workload:Vega.run_minver_workload ))
        units
    in
    let alu_suite = (List.assoc "alu32" reports).Vega.suite in
    let machine =
      Machine.create
        ~config:{ Machine.default_config with Machine.width = 32; fmt = Fpu_format.binary16 }
        ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional ()
    in
    let profile = Integrate.profile machine crc in
    let plan = Integrate.plan_integration ~compiled:crc ~profile ~suite:alu_suite () in
    let instrumented = Integrate.instrument ~compiled:crc ~suite:alu_suite ~plan in
    let pairs = List.concat_map (fun (_, r) -> r.Vega.pair_results) reports in
    let count c = List.length (List.filter (fun p -> p.Lift.classification = c) pairs) in
    let tally =
      String.concat "; "
        (List.map
           (fun (name, r) ->
             let cs = Vega.classification_counts r.Vega.pair_results in
             let n c = Option.value ~default:0 (List.assoc_opt c cs) in
             Printf.sprintf "%s S=%d UR=%d FF=%d FC=%d cases=%d" name (n Lift.S) (n Lift.UR)
               (n Lift.FF) (n Lift.FC)
               (List.length r.Vega.suite.Lift.suite_cases))
           reports)
    in
    let bad =
      check_failed ~what:"paper tally" ~expected:paper_expected ~got:tally
      || List.exists (fun (_, r) -> r.Vega.suite_cycles <= 0) reports
      || Array.length (Isa.assemble instrumented).Isa.instrs
         <= Array.length (Minic.assemble crc).Isa.instrs
    in
    let items = List.length pairs in
    {
      items;
      failed = (if bad then items else count Lift.FF + count Lift.FC);
      layer_stats =
        [
          ("lift.proved_ratio", float_of_int (count Lift.S) /. float_of_int (max 1 items));
          ( "sta.path_queries",
            float_of_int
              (List.fold_left
                 (fun acc (_, r) -> acc + List.length r.Vega.analysis.Vega.violating_pairs)
                 0 reports) );
        ];
      replay = no_replay;
    }

(* fleet: Experiments.fleet_campaign on default_fleet corners (ALU16, 10
   year steps, all kernels), 12 devices on the pool.  Item = device. *)

(* Digest of render_fleet for the default seed. *)
let fleet_expected = "d05a11008702ed5c5e777b9ce7cfe651"

let fleet_config seed =
  { Experiments.default_fleet with Experiments.fd_devices = 12; fd_seed = seed }

(* The SP-profile workload of one kernel, as the fleet campaign runs it. *)
let kernel_workload (b : Workload.benchmark) m =
  let width = (Machine.config m).Machine.width and fmt = (Machine.config m).Machine.fmt in
  Machine.reset m;
  ignore
    (Machine.run ~max_instructions:3_000_000 m
       (Minic.assemble (Minic.compile ~width ~fmt b.Workload.program)))

let violation_of_check = function
  | Sta.Setup -> Fault.Setup_violation
  | Sta.Hold -> Fault.Hold_violation

let corner_aging ~temp_k ~vdd =
  {
    Aging.default_config with
    Aging.temp_k;
    calibration_dvth_10y = Aging.default_config.Aging.calibration_dvth_10y *. vdd *. vdd;
  }

(* Replays fleet_eval's public calls device by device on one domain:
   the aging-library build, the onset scan of aged STA sweeps, the
   failing-netlist builds and the deployed suite's detection sweep.  The
   deployed suite and the SP profiles are rebuilt as the campaign builds
   them; each replayed row must agree with the campaign's. *)
let fleet_replay (config : Experiments.fleet_config) (target : Lift.target) corners
    (report : Experiments.fleet_report) () =
  let nl = target.Lift.netlist in
  let clock_period_ps = report.Experiments.fe_clock_period_ps in
  let clock_tree = Vega.default_phase1.Vega.clock_tree in
  let analysis =
    Vega.aging_analysis
      ~config:{ Vega.default_phase1 with Vega.clock_margin = config.Experiments.fd_margin }
      target ~workload:(kernel_workload Workload.minver)
  in
  let simc_s = ref 0.0 in
  let sp_by_kernel =
    List.map
      (fun (b : Workload.benchmark) ->
        let ops = Vega.recorded_unit_ops target ~workload:(kernel_workload b) in
        let sp, dt = time (fun () -> Vega.replay_sp target ops) in
        simc_s := !simc_s +. dt;
        (b.Workload.name, match sp with Some (_, sp) -> sp | None -> analysis.Vega.sp_of_net))
      Workload.all
  in
  let suite =
    let aglib =
      Aging.Timing_library.build
        ~config:
          (corner_aging ~temp_k:config.Experiments.fd_temp_max_k
             ~vdd:config.Experiments.fd_vdd_max)
        Cell.Library.c28
    in
    let timing =
      Sta.aged_timing ~clock_tree ~sp_of_net:analysis.Vega.sp_of_net
        ~years:config.Experiments.fd_years_max aglib
    in
    let seen = Hashtbl.create 16 in
    let rec select acc n = function
      | [] -> List.rev acc
      | _ when n >= config.Experiments.fd_specs -> List.rev acc
      | (Sta.From_dff s, Sta.At_dff e, check, _) :: rest
        when not (Hashtbl.mem seen (s, e, check)) ->
        Hashtbl.replace seen (s, e, check) ();
        let pr =
          Lift.lift_pair target ~start_dff:(Netlist.cell nl s).Netlist.name
            ~end_dff:(Netlist.cell nl e).Netlist.name ~violation:(violation_of_check check)
        in
        if pr.Lift.cases <> [] then select (pr :: acc) (n + 1) rest else select acc n rest
      | _ :: rest -> select acc n rest
    in
    Lift.suite_of_results target.Lift.kind
      (select [] 0 (Sta.violating_pairs ~timing ~clock_period_ps nl))
  in
  let t_aging = ref 0.0 and t_sta = ref 0.0 and t_fault = ref 0.0 and t_detect = ref 0.0 in
  (* the worst-corner sweep and aging build behind the deployed suite count too *)
  let sweeps = ref 1 and queries = ref 0 and fault_builds = ref 0 and items_s = ref 0.0 in
  let timed acc f =
    let v, dt = time f in
    acc := !acc +. dt;
    v
  in
  let mismatches = ref 0 in
  List.iter2
    (fun (c : Experiments.device_corner) (_, row) ->
      let t0 = Unix.gettimeofday () in
      let aglib =
        timed t_aging (fun () ->
            Aging.Timing_library.build
              ~config:(corner_aging ~temp_k:c.Experiments.dc_temp_k ~vdd:c.Experiments.dc_vdd)
              Cell.Library.c28)
      in
      let sp = List.assoc c.Experiments.dc_kernel sp_by_kernel in
      let rec scan i =
        if i > config.Experiments.fd_year_steps then None
        else
          let pairs =
            timed t_sta (fun () ->
                let timing =
                  Sta.aged_timing ~clock_tree ~sp_of_net:sp
                    ~years:(Experiments.fleet_years config i) aglib
                in
                Sta.violating_pairs ~timing ~clock_period_ps nl)
          in
          incr sweeps;
          queries := !queries + List.length pairs;
          if pairs = [] then scan (i + 1) else Some (i, pairs)
      in
      let onset = scan 1 in
      let detected =
        match onset with
        | None -> 0
        | Some (_, pairs) -> (
          match
            List.find_map
              (function
                | Sta.From_dff s, Sta.At_dff e, check, _ -> Some (s, e, check)
                | Sta.From_input _, _, _, _ -> None)
              pairs
          with
          | None -> 0
          | Some (s, e, check) ->
            let faulty =
              List.filter_map
                (fun constant ->
                  let spec =
                    {
                      Fault.start_dff = (Netlist.cell nl s).Netlist.name;
                      end_dff = (Netlist.cell nl e).Netlist.name;
                      kind = violation_of_check check;
                      constant;
                      activation = Fault.Any_transition;
                    }
                  in
                  incr fault_builds;
                  timed t_fault (fun () ->
                      match Fault.failing_netlist nl spec with
                      | exception _ -> None
                      | f -> Some f))
                config.Experiments.fd_constants
            in
            let seed =
              Fleet.derive_seed config.Experiments.fd_seed
                (Printf.sprintf "device-%04d" c.Experiments.dc_device)
            in
            List.length
              (List.filter
                 (fun f ->
                   timed t_detect (fun () ->
                       Array.exists Fun.id
                         (Lift.detected_cases ~seed ~engine:config.Experiments.fd_engine suite f)))
                 faulty))
      in
      items_s := !items_s +. (Unix.gettimeofday () -. t0);
      match row with
      | Ok r
        when r.Experiments.dv_onset_idx = Option.map fst onset
             && r.Experiments.dv_detected = detected ->
        ()
      | _ -> incr mismatches)
    corners report.Experiments.fe_results;
  if !mismatches > 0 then
    Printf.eprintf "fleet replay: %d device(s) disagree with the campaign\n%!" !mismatches;
  let share t = !t /. Float.max 1e-9 !items_s in
  {
    item_split =
      [
        ("sta", share t_sta);
        ("aging", share t_aging);
        ("fault", share t_fault);
        ("lift.detect", share t_detect);
      ];
    sim_ns_per_eval = None;
    direct =
      [
        ("sta.sweeps", float_of_int !sweeps);
        ("sta.path_queries", float_of_int !queries);
        ("aging.builds", float_of_int (List.length corners + 1));
        ("fault.builds", float_of_int !fault_builds);
        ("simc.self_s", !simc_s);
        ("replay.mismatches", float_of_int !mismatches);
      ];
  }

let fleet ~seed =
  let config = fleet_config seed in
  let target = Lift.alu_target ~width:config.Experiments.fd_width () in
  let corners = Experiments.fleet_corners config in
  fun () ->
    let report =
      Experiments.fleet_campaign ~config ~netlist:target.Lift.netlist ~domains:fleet_domains ()
    in
    let results = report.Experiments.fe_results in
    let bad_row ((c : Experiments.device_corner), r) =
      match r with
      | Error _ -> true
      | Ok (row : Experiments.fleet_row) ->
        row.Experiments.dv_device <> c.Experiments.dc_device
        || row.Experiments.dv_detected > row.Experiments.dv_specs
        || (match row.Experiments.dv_onset_idx with
           | Some o -> o < 1 || o > config.Experiments.fd_year_steps
           | None -> false)
    in
    let bad =
      List.map fst results <> corners
      || seed = default_seed
         && check_failed ~what:"render_fleet digest" ~expected:fleet_expected
              ~got:(digest (Experiments.render_fleet report))
    in
    let items = List.length results in
    let stats = report.Experiments.fe_stats in
    {
      items;
      failed = (if bad then items else List.length (List.filter bad_row results));
      layer_stats =
        [
          ("fleet.steals", float_of_int stats.Fleet.st_steals);
          ("fleet.retries", float_of_int stats.Fleet.st_retried);
        ];
      replay = fleet_replay config target corners report;
    }

(* repair: Vega.repair on FPU16 at the default phase-1 corner with a
   12-rewrite budget.  Item = violating pair walked. *)

(* Violating pairs before and after, commits and rejections for the
   default seed (the seed only drives the approximation rung, which is off). *)
let repair_expected = "violating 97->57 committed 12 rejected 16"

let repair ~seed =
  let target = Lift.fpu_target ~fmt:Fpu_format.binary16 () in
  let repair_config = { Repair.default_config with Repair.rp_max_rewrites = 12; rp_seed = seed } in
  fun () ->
    let r =
      Vega.repair ~config:Vega.default_phase1 ~repair_config target
        ~workload:Vega.run_minver_workload
    in
    let res = r.Vega.rr_result in
    let summary =
      Printf.sprintf "violating %d->%d committed %d rejected %d" r.Vega.rr_violating_before
        r.Vega.rr_violating_after res.Repair.rs_rewrites res.Repair.rs_rejected
    in
    let bad =
      res.Repair.rs_cec_failures > 0
      || r.Vega.rr_violating_after > r.Vega.rr_violating_before
      || res.Repair.rs_rewrites > repair_config.Repair.rp_max_rewrites
      || (seed = default_seed && check_failed ~what:"repair" ~expected:repair_expected ~got:summary)
    in
    let items = List.length res.Repair.rs_outcomes in
    {
      items;
      failed = (if bad then items else 0);
      layer_stats =
        [
          ( "sta.path_queries",
            float_of_int (r.Vega.rr_violating_before + r.Vega.rr_violating_after) );
        ];
      replay = no_replay;
    }

(* guard: Experiments.campaign with quick_campaign.  Item = campaign row. *)

(* Digest of render_campaign for the default seed. *)
let guard_expected = "c919ab9012ab1c1495486502b5023238"

(* Cost of one scalar gate evaluation inside the ISS: each campaign kernel
   runs once on a machine whose unit is the gate-level netlist and once on
   the functional machine the campaign uses for its golden run; the time
   difference over the library's sim.gate_evals count scales that counter
   into the time the ISS hosts spent in gate simulation. *)
let sim_replay (config : Experiments.campaign_config) targets () =
  let evals = Telemetry.Counter.make "sim.gate_evals" in
  let width = config.Experiments.cg_width and fmt = config.Experiments.cg_fmt in
  let mconfig =
    { Machine.default_config with Machine.width; fmt; rng_seed = config.Experiments.cg_seed }
  in
  let run machine (b : Workload.benchmark) =
    let prog = Minic.assemble (Minic.compile ~width ~fmt b.Workload.program) in
    Machine.reset machine;
    snd (time (fun () -> ignore (Machine.run ~max_instructions:5_000_000 machine prog)))
  in
  let kernels = List.map Workload.find config.Experiments.cg_kernels in
  Telemetry.enable ();
  let extra =
    List.fold_left
      (fun acc (t : Lift.target) ->
        let netlist_machine =
          match t.Lift.kind with
          | Lift.Alu_module _ ->
            Machine.create ~config:mconfig ~alu:(Machine.Alu_netlist t.Lift.netlist)
              ~fpu:Machine.Fpu_functional ()
          | Lift.Fpu_module _ ->
            Machine.create ~config:mconfig ~alu:Machine.Alu_functional
              ~fpu:(Machine.Fpu_netlist t.Lift.netlist) ()
        in
        let functional =
          Machine.create ~config:mconfig ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional ()
        in
        List.fold_left
          (fun acc b -> acc +. run netlist_machine b -. run functional b)
          acc kernels)
      0.0 targets
  in
  let n = Telemetry.Counter.value evals in
  Telemetry.disable ();
  let ns_per_eval = Float.max 0.0 extra *. 1e9 /. float_of_int (max 1 n) in
  { (no_replay ()) with sim_ns_per_eval = Some ns_per_eval }

let guard ~seed =
  let config = { Experiments.quick_campaign with Experiments.cg_seed = seed } in
  let targets =
    [
      Lift.alu_target ~width:config.Experiments.cg_width ();
      Lift.fpu_target ~fmt:config.Experiments.cg_fmt ();
    ]
  in
  fun () ->
    let rows = Experiments.campaign ~config () in
    let guarded_escape (r : Experiments.campaign_row) =
      r.Experiments.cr_mode <> "unguarded" && r.Experiments.cr_escape
    in
    let bad =
      List.length rows <> 64
      || seed = default_seed
         && check_failed ~what:"render_campaign digest" ~expected:guard_expected
              ~got:(digest (Experiments.render_campaign rows))
    in
    let items = List.length rows in
    {
      items;
      failed = (if bad then items else List.length (List.filter guarded_escape rows));
      layer_stats = [];
      replay = sim_replay config targets;
    }

let workloads =
  [ ("paper", paper); ("fleet", fleet); ("repair", repair); ("guard", guard) ]

(* ---------- measurement ---------- *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let words_allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

type sample = {
  wall : float;
  cpu : float;
  alloc_mb : float;
  gc_minor : int;
  gc_major : int;
  promoted_mb : float;
  outcome : outcome;
}

let measure pass =
  let g0 = Gc.quick_stat () and c0 = cpu_s () and t0 = Unix.gettimeofday () in
  let outcome = pass () in
  let wall = Unix.gettimeofday () -. t0 and cpu = cpu_s () -. c0 and g1 = Gc.quick_stat () in
  {
    wall;
    cpu;
    alloc_mb = mb_of_words (words_allocated g1 -. words_allocated g0);
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_mb = mb_of_words (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    outcome;
  }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

(* Set-up is repeated and its median reported: one set-up takes a few
   to a few tens of milliseconds, too short to time once.  The count is
   fixed, not time-bound, so the heap the first pass starts from is the
   same on every run. *)
let setup_repeats = 15

let timed_setup setup ~seed =
  let runs = List.init setup_repeats (fun _ -> time (fun () -> setup ~seed)) in
  Printf.eprintf "setup s: %s\n%!"
    (String.concat " " (List.map (fun (_, dt) -> Printf.sprintf "%.4f" dt) runs));
  (fst (List.hd runs), median (List.map snd runs))

(* Passes run while the next one (predicted to take as long as the
   slowest so far) still fits the budget; at least [min_passes]. *)
let run_passes ~seconds ~min_passes next =
  let t0 = Unix.gettimeofday () in
  let rec go acc slowest n =
    let elapsed = Unix.gettimeofday () -. t0 in
    if n >= min_passes && elapsed +. slowest > seconds then List.rev acc
    else
      let s = next n in
      go (s :: acc) (Float.max slowest s.wall) (n + 1)
  in
  go [] 0.0 0

(* ---------- per-layer metrics of a traced pass ---------- *)

let counter (snap : Telemetry.snapshot) name =
  match List.find_opt (fun c -> c.Telemetry.Counter.c_name = name) snap.Telemetry.ss_counters with
  | Some c -> float_of_int c.Telemetry.Counter.c_value
  | None -> 0.0

let span_totals forest name =
  Option.value ~default:{ Layers.count = 0; total_ns = 0; self_ns = 0 }
    (List.assoc_opt name (Layers.by_name forest))

let s_of_ns ns = float_of_int ns /. 1e9

let ratio a b = if b > 0.0 then a /. b else 0.0

let layer_metrics (snap : Telemetry.snapshot) (s : sample) (r : replay) =
  let forest = snap.Telemetry.ss_spans in
  let self = Layers.layer_self_ns forest in
  let self_s l = s_of_ns (Option.value ~default:0 (List.assoc_opt l self)) in
  let count name = float_of_int (span_totals forest name).Layers.count in
  let c = counter snap in
  let stat name =
    Option.value ~default:0.0
      (match List.assoc_opt name s.outcome.layer_stats with
      | Some v -> Some v
      | None -> List.assoc_opt name r.direct)
  in
  (* fleet.item: split by the replay's shares; the rest is pool overhead *)
  let item_self = self_s "fleet.item" in
  let item_share l = item_self *. Option.value ~default:0.0 (List.assoc_opt l r.item_split) in
  let item_rest =
    item_self -. List.fold_left (fun a (_, f) -> a +. (item_self *. f)) 0.0 r.item_split
  in
  (* the ISS hosts: carve the calibrated gate-simulation time out of both *)
  let machine = self_s "machine" and guard = self_s "guard" in
  let sim_s =
    match r.sim_ns_per_eval with
    | Some ns -> Float.min (machine +. guard) (c "sim.gate_evals" *. ns /. 1e9)
    | None -> 0.0
  in
  let host_share x = if machine +. guard > 0.0 then sim_s *. x /. (machine +. guard) else 0.0 in
  let simc_s = stat "simc.self_s" in
  let unattributed =
    Float.max 0.0
      (s_of_ns (Layers.unattributed_ns ~pass_ns:(int_of_float (s.wall *. 1e9)) forest)
      +. Float.max 0.0 item_rest -. simc_s)
  in
  let fleet_run = span_totals forest "fleet.run" in
  let spb_safe = c "vega.spbound.safe" in
  let committed = c "repair.committed" and rejected = c "repair.rejected" in
  [
    ("sta.sweeps", count "vega.fresh_sta" +. count "vega.aged_sta" +. stat "sta.sweeps");
    ("sta.path_queries", stat "sta.path_queries");
    ("sta.self_s", self_s "sta" +. item_share "sta");
    ("aging.builds", count "vega.phase1" +. stat "aging.builds");
    ("aging.self_s", item_share "aging");
    ("spbound.self_s", self_s "spbound");
    ( "spbound.safe_ratio",
      ratio spb_safe (spb_safe +. c "vega.spbound.critical" +. c "vega.spbound.unknown") );
    ("formal.bounds", count "formal.bound");
    ("formal.self_s", self_s "formal");
    ("sat.calls", c "sat.solve.calls");
    ("sat.conflicts", c "sat.conflicts");
    ("sat.self_s", self_s "sat");
    ("lift.pairs", c "lift.pairs");
    ("lift.proved_ratio", stat "lift.proved_ratio");
    ("lift.self_s", self_s "lift");
    ("lift.detect_s", item_share "lift.detect");
    ("fault.builds", stat "fault.builds");
    ("fault.self_s", item_share "fault");
    ("cec.proofs", c "repair.cec_proofs");
    ("cec.self_s", self_s "cec");
    ("sim.gate_evals", c "sim.gate_evals");
    ("sim.self_s", sim_s);
    ("sim64.lane_samples", c "sim64.lane_samples");
    ("simc.compiles", c "simc.compiles");
    ("simc.self_s", simc_s);
    ("profile.self_s", self_s "profile");
    ("machine.self_s", machine -. host_share machine);
    ("guard.runs", count "guard.run");
    ("guard.slices", c "guard.slices");
    ("guard.self_s", guard -. host_share guard);
    ("repair.pairs", c "repair.pairs");
    ("repair.rejected", rejected);
    ("repair.commit_ratio", ratio committed (committed +. rejected));
    ("repair.self_s", self_s "repair");
    ("fleet.items", c "fleet.items_done");
    ("fleet.item_s", s_of_ns (span_totals forest "fleet.item").Layers.total_ns);
    ( "fleet.parallel_eff",
      ratio
        (float_of_int (span_totals forest "fleet.item").Layers.total_ns)
        (float_of_int (fleet_domains * fleet_run.Layers.total_ns)) );
    ("fleet.steals", stat "fleet.steals");
    ("fleet.retries", stat "fleet.retries");
    ("gc.minor_collections", float_of_int s.gc_minor);
    ("gc.major_collections", float_of_int s.gc_major);
    ("gc.promoted_mb", s.promoted_mb);
    ("unattributed_s", unattributed);
  ]

(* ---------- runs ---------- *)

let unit_of = function
  | "items_per_s" -> "1/s"
  | "ok_frac" | "trace_overhead" -> "ratio"
  | name ->
    let suffix s = String.ends_with ~suffix:s name in
    if suffix "_s" then "s"
    else if suffix "_mb" then "MB"
    else if suffix "_ratio" || suffix "_eff" then "ratio"
    else "count"

let totals samples =
  List.fold_left (fun (a, f) s -> (a + s.outcome.items, f + s.outcome.failed)) (0, 0) samples

let untraced_run ~pass ~setup_s ~seconds =
  (* the peak is read after the first pass: later peaks would depend on
     how many passes fit the budget *)
  let heap_peak = ref 0 in
  let samples =
    run_passes ~seconds ~min_passes:2 (fun n ->
        let s = measure pass in
        if n = 0 then heap_peak := (Gc.quick_stat ()).Gc.top_heap_words;
        s)
  in
  Printf.eprintf "pass wall s: %s\n%!"
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.wall) samples));
  let attempted, failed = totals samples in
  let items_per_pass = float_of_int attempted /. float_of_int (List.length samples) in
  ( attempted,
    failed,
    [
      ("setup_s", setup_s);
      ("items_per_s", items_per_pass /. median (List.map (fun s -> s.wall) samples));
      ("cpu_s", median (List.map (fun s -> s.cpu) samples));
      ("alloc_mb", median (List.map (fun s -> s.alloc_mb) samples));
      ("heap_peak_mb", mb_of_words (float_of_int !heap_peak));
      ("ok_frac", 1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
    ] )

(* Traced runs start with two untraced passes (first and later pass
   reported apart, so a cache carried across passes would show), then
   alternate traced and untraced passes.  The replay runs once, after
   the first traced pass. *)
let traced_run ~pass ~seconds =
  let traced = ref [] and replay = ref None in
  let samples =
    run_passes ~seconds ~min_passes:3 (fun n ->
        if n < 2 || n mod 2 = 1 then measure pass
        else begin
          Telemetry.enable ();
          let s = measure pass in
          Telemetry.disable ();
          let snap = Telemetry.snapshot () in
          let r =
            match !replay with
            | Some r -> r
            | None ->
              let r = s.outcome.replay () in
              replay := Some r;
              r
          in
          traced := (s, layer_metrics snap s r) :: !traced;
          s
        end)
  in
  let traced = List.rev !traced in
  let traced_walls = List.map (fun (s, _) -> s.wall) traced in
  let untraced =
    List.filter (fun s -> not (List.exists (fun (t, _) -> t == s) traced)) samples
  in
  let attempted, failed = totals samples in
  let per_layer =
    match traced with
    | [] -> []
    | (_, first) :: _ ->
      List.map
        (fun (name, _) -> (name, mean (List.map (fun (_, m) -> List.assoc name m) traced)))
        first
  in
  let later = List.tl (List.map (fun s -> s.wall) untraced) in
  let replay = Option.value ~default:(no_replay ()) !replay in
  ( attempted,
    failed,
    per_layer
    @ [
        ("pass.first_s", (List.hd untraced).wall);
        ("pass.later_s", median later);
        ("trace_overhead", median traced_walls /. median (List.map (fun s -> s.wall) untraced));
        ( "replay.mismatches",
          Option.value ~default:0.0 (List.assoc_opt "replay.mismatches" replay.direct) );
      ] )

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) (unit_of name))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0) attempted failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper|fleet|repair|guard --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 and trace = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Int (fun t -> trace := t = 1), "0|1");
    ]
    (fun _ -> usage ())
    "bench.exe";
  match List.assoc_opt !workload workloads with
  | None -> usage ()
  | Some setup ->
    pin_environment ~workload:!workload ~seed:!seed ~trace:!trace;
    let pass, setup_s = timed_setup setup ~seed:!seed in
    let attempted, failed, metrics =
      if !trace then traced_run ~pass ~seconds:!seconds
      else untraced_run ~pass ~setup_s ~seconds:!seconds
    in
    print_result ~attempted ~failed metrics
