(* Tests for the static timing analysis engine, reproducing the numbers of
   the paper's Section 3 walk-through on the example adder. *)

let adder = Example_circuits.pipelined_adder ()
let example_lib = Cell.Library.example

(* The paper's example uses no clock-tree delay: clock arrivals are 0. *)
let flat_clock = { (Sta.fresh_timing example_lib) with Sta.clock_arrival_ps = (fun _ -> 0.0) }

let test_paper_example_fresh () =
  (* At 1 GHz the longest path $4 -> $7 -> $8 -> $10 accumulates 0.9 ns,
     meeting the 60 ps setup; the shortest path $1 -> $5 -> $9 has 0.2 ns,
     meeting the 30 ps hold: no violations when fresh. *)
  let r = Sta.analyze ~timing:flat_clock ~clock_period_ps:1000.0 adder in
  Alcotest.(check int) "no setup violations" 0 (List.length r.Sta.setup_violations);
  Alcotest.(check int) "no hold violations" 0 (List.length r.Sta.hold_violations);
  Alcotest.(check (float 1e-9)) "wns setup 0" 0.0 r.Sta.wns_setup_ps;
  (* worst setup endpoint is $10: slack = 1000 - 60 - 900 = 40 ps *)
  let c10 = Netlist.find_cell adder "$10" in
  let es =
    List.find (fun e -> e.Sta.ep = Sta.At_dff c10.id) r.Sta.endpoint_slacks
  in
  Alcotest.(check (float 1e-6)) "slack at $10" 40.0 es.Sta.setup_slack_ps;
  (* hold slack at $9: arrival_min 200 ps vs hold 30 ps => 170 ps *)
  let c9 = Netlist.find_cell adder "$9" in
  let e9 = List.find (fun e -> e.Sta.ep = Sta.At_dff c9.id) r.Sta.endpoint_slacks in
  Alcotest.(check (float 1e-6)) "hold slack at $9" 170.0 e9.Sta.hold_slack_ps

let test_paper_example_aged_setup () =
  (* Age the cells on the critical path by ~5.5%: 900 ps -> ~0.95 ns,
     violating the 940 ps setup requirement, as in Section 3.2.2. *)
  let aged_delay (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    let factor = if List.mem c.name [ "$7"; "$8" ] then 1.08 else 1.055 in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. factor }
  in
  let timing = { flat_clock with Sta.cell_delay = aged_delay } in
  let r = Sta.analyze ~timing ~clock_period_ps:1000.0 adder in
  Alcotest.(check bool) "setup violations found" true (List.length r.Sta.setup_violations > 0);
  Alcotest.(check bool) "wns negative" true (r.Sta.wns_setup_ps < 0.0);
  (* all violating paths end at $10 (the only 3-deep endpoint) *)
  let c10 = Netlist.find_cell adder "$10" in
  List.iter
    (fun p -> Alcotest.(check bool) "ends at $10" true (p.Sta.finish = Sta.At_dff c10.id))
    r.Sta.setup_violations;
  (* the worst path goes through $7 and $8 *)
  let worst = List.hd r.Sta.setup_violations in
  let names = List.map (fun id -> (Netlist.cell adder id).name) worst.Sta.through in
  Alcotest.(check (list string)) "worst path cells" [ "$7"; "$8" ] names

let test_paper_example_hold_via_skew () =
  (* A clock phase shift between the launching $1 (domain 0) and capturing
     $9 (domain 1) creates the hold violation of the paper's example. *)
  let split = Example_circuits.pipelined_adder ~split_domains:true () in
  let timing =
    {
      flat_clock with
      Sta.clock_arrival_ps = (fun dom -> if dom = 1 then 180.0 else 0.0);
    }
  in
  let r = Sta.analyze ~timing ~clock_period_ps:1000.0 split in
  (* both rank-one registers $1 and $3 launch a violating path into $9 *)
  Alcotest.(check int) "hold violations found" 2 (List.length r.Sta.hold_violations);
  let starts =
    List.map (fun p -> Sta.describe_startpoint split p.Sta.start) r.Sta.hold_violations
    |> List.sort compare
  in
  Alcotest.(check (list string)) "starts" [ "$1"; "$3" ] starts;
  List.iter
    (fun p ->
      Alcotest.(check string) "end" "$9" (Sta.describe_endpoint split p.Sta.finish);
      (* arrival_min = 100 (clk->q) + 100 ($5) = 200; required = 180 + 30 = 210 *)
      Alcotest.(check (float 1e-6)) "hold slack" (-10.0) p.Sta.slack_ps)
    r.Sta.hold_violations

let test_violating_path_count () =
  (* Slow every cell dramatically: every register-to-register path through
     combinational logic must then violate setup.  Distinct violating paths
     into $10: $2/$4 -> $7 -> $8, $1/$3 -> $6 -> $8 (4 paths); into $9:
     $1/$3 -> $5 (2 paths); direct DFF->DFF input-rank paths have no comb
     delay and stay clean. *)
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~timing ~clock_period_ps:850.0 adder in
  Alcotest.(check int) "six violating setup paths" 6 (List.length r.Sta.setup_violations);
  let pairs = Sta.unique_pairs r.Sta.setup_violations in
  Alcotest.(check int) "unique endpoint pairs" 6 (List.length pairs)

let test_unique_pairs_dedup () =
  (* force two violating paths between the same pair by slowing only $6/$7:
     both $2->$7->$8->$10 and $2 is unique per start; instead check that
     unique_pairs keeps worst slack *)
  let p1 =
    {
      Sta.start = Sta.From_dff 1;
      finish = Sta.At_dff 9;
      through = [ 6 ];
      delay_ps = 950.0;
      slack_ps = -10.0;
      check = Sta.Setup;
    }
  in
  let p2 = { p1 with Sta.through = [ 7 ]; delay_ps = 960.0; slack_ps = -20.0 } in
  let pairs = Sta.unique_pairs [ p1; p2 ] in
  Alcotest.(check int) "merged" 1 (List.length pairs);
  let _, best = List.hd pairs in
  Alcotest.(check (float 1e-9)) "kept worst" (-20.0) best.Sta.slack_ps

let test_aged_timing_source () =
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  (* constant SP 0.1: heavy stress everywhere *)
  let timing = Sta.aged_timing ~sp_of_net:(fun _ -> 0.1) ~years:10.0 aglib in
  let fresh = Sta.fresh_timing Cell.Library.c28 in
  let c7 = Netlist.find_cell adder "$7" in
  let aged_d = timing.Sta.cell_delay c7 and fresh_d = fresh.Sta.cell_delay c7 in
  Alcotest.(check bool) "aged slower" true (aged_d.Cell.tpd_max_ps > fresh_d.Cell.tpd_max_ps);
  Alcotest.(check bool) "ratio in 4-8% band" true
    (let r = aged_d.Cell.tpd_max_ps /. fresh_d.Cell.tpd_max_ps in
     r > 1.03 && r < 1.09)

let test_em_aware_timing () =
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  let bti_only = Sta.aged_timing ~sp_of_net:(fun _ -> 0.5) ~years:10.0 aglib in
  let with_em =
    Sta.aged_timing ~toggle_of_net:(fun _ -> 0.8) ~sp_of_net:(fun _ -> 0.5) ~years:10.0 aglib
  in
  let c7 = Netlist.find_cell adder "$7" in
  let d_bti = (bti_only.Sta.cell_delay c7).Cell.tpd_max_ps in
  let d_em = (with_em.Sta.cell_delay c7).Cell.tpd_max_ps in
  Alcotest.(check bool) "EM adds delay on busy nets" true (d_em > d_bti);
  (* idle nets see no EM contribution *)
  let idle =
    Sta.aged_timing ~toggle_of_net:(fun _ -> 0.0) ~sp_of_net:(fun _ -> 0.5) ~years:10.0 aglib
  in
  Alcotest.(check (float 1e-9)) "no activity, no EM" d_bti
    ((idle.Sta.cell_delay c7).Cell.tpd_max_ps)

(* ---------- aged-corner edge cases on minimal paths ---------- *)

let aglib_c28 = Aging.Timing_library.build Cell.Library.c28
let aged_sp sp = Sta.aged_timing ~sp_of_net:(fun _ -> sp) ~years:10.0 aglib_c28

let pair_slack pairs st en ck =
  match List.find_opt (fun (s, e, c, _) -> s = st && e = en && c = ck) pairs with
  | Some (_, _, _, sl) -> sl
  | None -> Alcotest.fail "expected register pair missing from endpoint_pairs"

let test_direct_dff_to_dff () =
  (* Zero combinational cells between the registers: the setup arrival is
     exactly clk-to-Q max, the hold arrival clk-to-Q min, and same-domain
     clock arrivals cancel even when the tree buffers age. *)
  let b = Netlist.Builder.create "direct" in
  let d = Netlist.Builder.add_input b "d" 1 in
  let a_id, qa = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let b_id, qb = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| qa |] in
  Netlist.Builder.add_output b "q" [| qb |];
  let nl = Netlist.Builder.finish b in
  let timing = aged_sp 0.2 in
  let period = 500.0 in
  let pairs = Sta.endpoint_pairs ~timing ~clock_period_ps:period nl in
  let dt = timing.Sta.dff_timing in
  Alcotest.(check (float 1e-6)) "setup slack = T - clkq_max - setup"
    (period -. dt.Cell.clk_to_q_max_ps -. dt.Cell.setup_ps)
    (pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Setup);
  Alcotest.(check (float 1e-6)) "hold slack = clkq_min - hold"
    (dt.Cell.clk_to_q_min_ps -. dt.Cell.hold_ps)
    (pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Hold)

let test_single_cell_aged_path () =
  (* One inverter between the registers: the pair's setup slack must track
     the aged inverter delay exactly, and lowering SP (more stress) must
     eat slack monotonically. *)
  let b = Netlist.Builder.create "single" in
  let d = Netlist.Builder.add_input b "d" 1 in
  let a_id, qa = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let inv_id, inv = Netlist.Builder.add_cell_with_id b Cell.Kind.Not [| qa |] in
  let b_id, qb = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| inv |] in
  Netlist.Builder.add_output b "q" [| qb |];
  let nl = Netlist.Builder.finish b in
  let period = 500.0 in
  let slack_at sp =
    let timing = aged_sp sp in
    let pairs = Sta.endpoint_pairs ~timing ~clock_period_ps:period nl in
    let dt = timing.Sta.dff_timing in
    let aged_inv = (timing.Sta.cell_delay (Netlist.cell nl inv_id)).Cell.tpd_max_ps in
    let got = pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Setup in
    Alcotest.(check (float 1e-6)) "setup slack = T - clkq_max - aged inv - setup"
      (period -. dt.Cell.clk_to_q_max_ps -. aged_inv -. dt.Cell.setup_ps) got;
    got
  in
  let stressed = slack_at 0.05 and relaxed = slack_at 0.95 in
  Alcotest.(check bool) "lower SP ages harder" true (stressed < relaxed)

let test_chain_delay_summation () =
  (* Buf -> Not -> Buf: the single path's aged delays must add up. *)
  let b = Netlist.Builder.create "chain" in
  let d = Netlist.Builder.add_input b "d" 1 in
  let a_id, qa = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let c1_id, n1 = Netlist.Builder.add_cell_with_id b Cell.Kind.Buf [| qa |] in
  let c2_id, n2 = Netlist.Builder.add_cell_with_id b Cell.Kind.Not [| n1 |] in
  let c3_id, n3 = Netlist.Builder.add_cell_with_id b Cell.Kind.Buf [| n2 |] in
  let b_id, qb = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| n3 |] in
  Netlist.Builder.add_output b "q" [| qb |];
  let nl = Netlist.Builder.finish b in
  let timing = aged_sp 0.1 in
  let period = 800.0 in
  let pairs = Sta.endpoint_pairs ~timing ~clock_period_ps:period nl in
  let dt = timing.Sta.dff_timing in
  let comb =
    List.fold_left
      (fun acc id -> acc +. (timing.Sta.cell_delay (Netlist.cell nl id)).Cell.tpd_max_ps)
      0.0 [ c1_id; c2_id; c3_id ]
  in
  Alcotest.(check (float 1e-6)) "setup slack sums the aged chain"
    (period -. dt.Cell.clk_to_q_max_ps -. comb -. dt.Cell.setup_ps)
    (pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Setup)

let test_skip_drops_only_skipped_pairs () =
  let timing = aged_sp 0.3 in
  let all = Sta.endpoint_pairs ~timing ~clock_period_ps:850.0 adder in
  Alcotest.(check bool) "adder has register pairs" true (all <> []);
  let s0, e0, c0, _ = List.hd all in
  let skip s e c = s = s0 && e = e0 && c = c0 in
  let pruned = Sta.endpoint_pairs ~skip ~timing ~clock_period_ps:850.0 adder in
  let expected = List.filter (fun (s, e, c, _) -> not (skip s e c)) all in
  Alcotest.(check int) "exactly one pair dropped" (List.length all - 1) (List.length pruned);
  Alcotest.(check bool) "surviving pairs are untouched" true (pruned = expected)

let test_describe_path () =
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~timing ~clock_period_ps:850.0 adder in
  let descr = Sta.describe_path adder (List.hd r.Sta.setup_violations) in
  Alcotest.(check bool) "mentions setup" true
    (String.length descr > 0
    &&
    let rec contains i =
      i + 5 <= String.length descr && (String.sub descr i 5 = "setup" || contains (i + 1))
    in
    contains 0)

let test_render_report () =
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~timing ~clock_period_ps:850.0 adder in
  let text = Sta.render_report adder r in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions WNS" true (contains "WNS");
  Alcotest.(check bool) "mentions violations" true (contains "setup violations: 6");
  Alcotest.(check bool) "mentions endpoints" true (contains "tightest endpoints");
  Alcotest.(check bool) "describes a path" true (contains "$10")

let test_truncation () =
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~max_violating_paths:2 ~timing ~clock_period_ps:850.0 adder in
  Alcotest.(check bool) "truncated flagged" true r.Sta.truncated;
  Alcotest.(check int) "capped" 2 (List.length r.Sta.setup_violations)

(* Property: path delays reported by enumeration never exceed the
   propagated arrival-time bound, and slacks are consistent. *)
let prop_paths_within_bounds =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"enumerated setup paths consistent with slack"
       (QCheck.make ~print:(Printf.sprintf "%.1f")
          QCheck.Gen.(float_range 700.0 1100.0))
       (fun period ->
         let slow (c : Netlist.cell) =
           let t = Cell.Library.timing example_lib c.kind in
           { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 1.6 }
         in
         let timing = { flat_clock with Sta.cell_delay = slow } in
         let r = Sta.analyze ~timing ~clock_period_ps:period adder in
         List.for_all
           (fun p ->
             p.Sta.slack_ps < 0.0
             && Float.abs (p.Sta.slack_ps -. (period -. 60.0 -. p.Sta.delay_ps)) < 1e-6)
           r.Sta.setup_violations))

(* Property: Monte-Carlo path sampling never exceeds the propagated
   arrival-time bound at any endpoint. *)
let prop_monte_carlo_paths_bounded =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"sampled path delays within STA bounds"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let nl = Alu.netlist ~width:8 () in
         let timing = Sta.fresh_timing ~clock_tree:Clock_tree.single_domain Cell.Library.c28 in
         let r = Sta.analyze ~timing ~clock_period_ps:1e9 nl in
         (* pick a random endpoint and walk a random backward path, summing
            max delays; the arrival must be <= the endpoint's bound *)
         let dffs = Array.of_list (Netlist.dffs nl) in
         let ep = dffs.(Random.State.int rng (Array.length dffs)) in
         let ep_cell = Netlist.cell nl ep in
         let bound =
           let es = List.find (fun e -> e.Sta.ep = Sta.At_dff ep) r.Sta.endpoint_slacks in
           1e9 -. es.Sta.setup_slack_ps -. (Cell.Library.dff Cell.Library.c28).Cell.setup_ps
         in
         let rec walk net acc =
           match Netlist.driver nl net with
           | Netlist.Driven_by_input _ -> None  (* unconstrained start *)
           | Netlist.Driven_by_cell id ->
             let c = Netlist.cell nl id in
             if Cell.Kind.is_sequential c.Netlist.kind then
               Some (acc +. (Cell.Library.dff Cell.Library.c28).Cell.clk_to_q_max_ps)
             else if Array.length c.Netlist.inputs = 0 then None  (* tie *)
             else begin
               let d = (timing.Sta.cell_delay c).Cell.tpd_max_ps in
               let pin = Random.State.int rng (Array.length c.Netlist.inputs) in
               walk c.Netlist.inputs.(pin) (acc +. d)
             end
         in
         match walk ep_cell.Netlist.inputs.(0) 0.0 with
         | None -> true  (* path from an unconstrained source *)
         | Some arrival -> arrival <= bound +. 1e-6))

(* ---------- compiled core vs the reference oracle ---------- *)

(* [Sta_oracle] holds the implementation the compiled core replaced.  The
   two must agree bit for bit: the same pair list in the same order with
   slacks equal under [Int64.bits_of_float], the same extremal path per
   pair, the same report, and the same sequence of [skip] calls. *)

module B = Netlist.Builder

let comb_kinds = Array.of_list Cell.Kind.combinational

(* Random sequential netlist over [domains] clock domains: input ports, a
   tie cell, a comb/DFF soup whose picks may repeat a net on two pins,
   DFF feedback (a D pin rewired to a later net), and a register chain so
   DFF-to-DFF pairs always exist. *)
let random_netlist rng ~domains =
  let b = B.create "sta_rand" in
  let pool = ref [] in
  for i = 0 to Random.State.int rng 3 do
    let w = 1 + Random.State.int rng 4 in
    pool := Array.to_list (B.add_input b (Printf.sprintf "in%d" i) w) @ !pool
  done;
  if Random.State.bool rng then
    pool := B.add_cell b (if Random.State.bool rng then Cell.Kind.Tie0 else Cell.Kind.Tie1) [||] :: !pool;
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let domain () = Random.State.int rng domains in
  let regs = ref [] in
  for _ = 1 to 6 + Random.State.int rng 40 do
    let out =
      if Random.State.int rng 4 = 0 then begin
        let id, q =
          B.add_cell_with_id ~clock_domain:(domain ()) b Cell.Kind.Dff [| pick () |]
        in
        regs := id :: !regs;
        q
      end
      else
        let k = comb_kinds.(Random.State.int rng (Array.length comb_kinds)) in
        B.add_cell b k (Array.init (Cell.Kind.arity k) (fun _ -> pick ()))
    in
    pool := out :: !pool
  done;
  List.iter
    (fun id -> if Random.State.int rng 3 = 0 then B.rewire_input b ~cell_id:id ~pin:0 (pick ()))
    !regs;
  let chain = ref (pick ()) in
  for _ = 1 to 1 + Random.State.int rng 3 do
    chain := B.add_cell ~clock_domain:(domain ()) b Cell.Kind.Dff [| !chain |]
  done;
  B.add_output b "chain" [| !chain |];
  B.add_output b "out" (Array.init (1 + Random.State.int rng 3) (fun _ -> pick ()));
  B.finish b

let bits_of_pairs pairs = List.map (fun (s, e, c, sl) -> (s, e, c, Int64.bits_of_float sl)) pairs

let bits_of_path =
  Option.map (fun (p : Sta.path) ->
      ( p.Sta.start,
        p.Sta.finish,
        p.Sta.check,
        p.Sta.through,
        Int64.bits_of_float p.Sta.delay_ps,
        Int64.bits_of_float p.Sta.slack_ps ))

(* Marshalled without sharing, two reports are equal byte for byte iff
   they have the same structure and every float has the same bits. *)
let report_bytes (r : Sta.report) = Marshal.to_string r [ Marshal.No_sharing ]

(* Every output of the core against the oracle on one netlist, timing
   source and period; [Error] names the first disagreement. *)
let differential ?(skip_seed = 0) ?(path_pairs = `All) ~constrain_inputs ~timing ~clock_period_ps
    nl =
  let calls = ref [] in
  let skip s e c =
    calls := (s, e, c) :: !calls;
    Hashtbl.hash (skip_seed, s, e, c) mod 4 = 0
  in
  let with_skip f =
    calls := [];
    let r = f skip in
    (r, List.rev !calls)
  in
  let core = Sta.endpoint_pairs ~constrain_inputs ~timing ~clock_period_ps nl in
  let oracle = Sta_oracle.endpoint_pairs ~constrain_inputs ~timing ~clock_period_ps nl in
  let core_skip, core_calls =
    with_skip (fun skip -> Sta.violating_pairs ~constrain_inputs ~skip ~timing ~clock_period_ps nl)
  in
  let oracle_skip, oracle_calls =
    with_skip (fun skip ->
        Sta_oracle.violating_pairs ~constrain_inputs ~skip ~timing ~clock_period_ps nl)
  in
  let cap = 1 + Hashtbl.hash (skip_seed, "cap") mod 40 in
  let same_report max_violating_paths =
    report_bytes
      (Sta.analyze ~constrain_inputs ?max_violating_paths ~timing ~clock_period_ps nl)
    = report_bytes
        (Sta_oracle.analyze ~constrain_inputs ?max_violating_paths ~timing ~clock_period_ps nl)
  in
  let queries =
    match path_pairs with
    | `All ->
      (* every connected pair, plus unconnected and unconstrained ones *)
      let extra =
        List.concat_map
          (fun ep ->
            [
              (Sta.From_dff ep, Sta.At_dff ep, Sta.Setup);
              (Sta.From_input ("in0", 0), Sta.At_dff ep, Sta.Hold);
            ])
          (Netlist.dffs nl)
      in
      List.map (fun (s, e, c, _) -> (s, e, c)) core @ extra
    | `Every k -> List.filteri (fun i _ -> i mod k = 0) (List.map (fun (s, e, c, _) -> (s, e, c)) core)
  in
  let path_mismatch =
    List.find_opt
      (fun (s, e, c) ->
        bits_of_path (Sta.pair_path ~constrain_inputs ~timing ~clock_period_ps nl s e c)
        <> bits_of_path (Sta_oracle.pair_path ~constrain_inputs ~timing ~clock_period_ps nl s e c))
      queries
  in
  if bits_of_pairs core <> bits_of_pairs oracle then Error "endpoint_pairs differ"
  else if bits_of_pairs core_skip <> bits_of_pairs oracle_skip then
    Error "violating_pairs with skip differ"
  else if core_calls <> oracle_calls then Error "skip called differently"
  else if not (same_report None) then Error "analyze reports differ"
  else if not (same_report (Some cap)) then Error "capped analyze reports differ"
  else
    match path_mismatch with
    | Some (s, e, _) ->
      Error
        (Printf.sprintf "pair_path differs on %s -> %s" (Sta.describe_startpoint nl s)
           (Sta.describe_endpoint nl e))
    | None -> Ok ()

let prop_core_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"compiled core bit-identical to the oracle"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0x57a |] in
         let domains = 1 + Random.State.int rng 2 in
         let nl = random_netlist rng ~domains in
         let clock_tree =
           if domains = 2 then
             Clock_tree.two_domain_gated
               ~leaf_buffers:(1 + Random.State.int rng 20)
               ~sp_gated:(Random.State.float rng 1.0) ()
           else Clock_tree.single_domain
         in
         let sp = Array.init (Netlist.num_nets nl) (fun _ -> Random.State.float rng 1.0) in
         let toggle = Array.init (Netlist.num_nets nl) (fun _ -> Random.State.float rng 1.0) in
         let input_arrival_ps = Random.State.float rng 300.0 in
         let fresh =
           {
             (Sta.fresh_timing ~derate:(1.0 +. Random.State.float rng 0.1) ~clock_tree
                Cell.Library.c28)
             with
             Sta.input_arrival_ps;
           }
         in
         let aged =
           {
             (Sta.aged_timing ~clock_tree
                ?toggle_of_net:(if Random.State.bool rng then Some (fun n -> toggle.(n)) else None)
                ~sp_of_net:(fun n -> sp.(n))
                ~years:(Random.State.float rng 10.0) aglib_c28)
             with
             Sta.input_arrival_ps;
           }
         in
         (* a period near a random pair's setup slack: some pairs violate *)
         let clock_period_ps =
           match Sta_oracle.endpoint_pairs ~timing:fresh ~clock_period_ps:1000.0 nl with
           | [] -> 1000.0
           | pairs ->
             let _, _, _, s = List.nth pairs (Random.State.int rng (List.length pairs)) in
             1000.0 -. s +. Random.State.float rng 40.0 -. 20.0
         in
         List.for_all
           (fun (timing, constrain_inputs) ->
             match
               differential ~skip_seed:seed ~constrain_inputs ~timing ~clock_period_ps nl
             with
             | Ok () -> true
             | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)
           [ (fresh, false); (fresh, true); (aged, false); (aged, true) ]))

(* The paper-scale corner: ALU16 and FPU16 aged ten years under the gated
   two-domain clock tree, clocked 0.5% above the fresh critical path. *)
let test_core_matches_oracle_fixed () =
  let clock_tree = Clock_tree.two_domain_gated ~sp_gated:0.05 () in
  let sp_of_net n = 0.1 +. (0.8 *. float_of_int (n * 2654435761 land 1023) /. 1023.0) in
  List.iter
    (fun (name, nl) ->
      let fresh = Sta.fresh_timing ~clock_tree Cell.Library.c28 in
      let probe = Sta_oracle.analyze ~timing:fresh ~clock_period_ps:1e9 nl in
      let crit =
        List.fold_left
          (fun acc (e : Sta.endpoint_slack) -> Float.max acc (1e9 -. e.Sta.setup_slack_ps))
          0.0 probe.Sta.endpoint_slacks
      in
      let timing = Sta.aged_timing ~clock_tree ~sp_of_net ~years:10.0 aglib_c28 in
      let clock_period_ps = crit *. 1.005 in
      let violating = Sta.violating_pairs ~timing ~clock_period_ps nl in
      Alcotest.(check bool) (name ^ " has aging-prone pairs") true (violating <> []);
      List.iter
        (fun constrain_inputs ->
          match
            differential ~path_pairs:(`Every 7) ~constrain_inputs ~timing ~clock_period_ps nl
          with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" name msg)
        [ false; true ];
      List.iter
        (fun (s, e, c, _) ->
          Alcotest.(check bool)
            (name ^ " violating pair path") true
            (bits_of_path (Sta.pair_path ~timing ~clock_period_ps nl s e c)
            = bits_of_path (Sta_oracle.pair_path ~timing ~clock_period_ps nl s e c)))
        violating)
    [ ("alu16", Alu.netlist ~width:16 ()); ("fpu16", Fpu.netlist ()) ]

(* ---------- allocation and telemetry cost of a sweep ---------- *)

let alloc_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* One aged ALU8 sweep allocates at most 16 words per net, cell and
   returned pair (it measures about 9): one [cell_delay] record per cell,
   the per-DFF startpoints, and the returned tuples.  Allocating per
   visited edge (a [Cell.timing] record, a boxed tail) or a [Hashtbl] per
   endpoint, as the oracle does, breaks the bound.  The [sta.*] counters
   cost no allocation whether or not telemetry records. *)
let test_sweep_allocation () =
  let nl = Alu.netlist ~width:8 () in
  let timing =
    Sta.aged_timing
      ~clock_tree:(Clock_tree.two_domain_gated ~sp_gated:0.05 ())
      ~sp_of_net:(fun _ -> 0.3) ~years:10.0 aglib_c28
  in
  let clock_period_ps = 1300.0 in
  let pairs = ref [] in
  let sweep () = pairs := Sta.endpoint_pairs ~timing ~clock_period_ps nl in
  let oracle_sweep () = pairs := Sta_oracle.endpoint_pairs ~timing ~clock_period_ps nl in
  Telemetry.disable ();
  sweep ();
  let disabled = alloc_of sweep in
  let size = Netlist.num_nets nl + Netlist.num_cells nl + List.length !pairs in
  let bound = float_of_int (16 * size) in
  Alcotest.(check bool)
    (Printf.sprintf "sweep allocates %.0f words <= 16 * %d" disabled size)
    true (disabled <= bound);
  Alcotest.(check bool) "the oracle breaks the bound" true (alloc_of oracle_sweep > 10.0 *. bound);
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let enabled = alloc_of sweep in
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check (float 0.0)) "enabled sweep allocates exactly as much as disabled" disabled
    enabled;
  let counter name =
    match
      List.find_opt (fun c -> c.Telemetry.Counter.c_name = name) snap.Telemetry.ss_counters
    with
    | Some c -> c.Telemetry.Counter.c_value
    | None -> 0
  in
  Alcotest.(check int) "one sweep counted" 1 (counter "sta.sweeps");
  Alcotest.(check bool) "cones counted" true (counter "sta.cone_nets" > 0);
  Alcotest.(check bool) "at most one delay fill per cell" true
    (counter "sta.delay_fills" > 0 && counter "sta.delay_fills" <= Netlist.num_cells nl);
  (* every pair skipped: no cone is built and no delay is filled *)
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let none = Sta.endpoint_pairs ~skip:(fun _ _ _ -> true) ~timing ~clock_period_ps nl in
  let snap' = Telemetry.snapshot () in
  Telemetry.disable ();
  let counter' name =
    match
      List.find_opt (fun c -> c.Telemetry.Counter.c_name = name) snap'.Telemetry.ss_counters
    with
    | Some c -> c.Telemetry.Counter.c_value
    | None -> 0
  in
  Alcotest.(check int) "all skipped: no pairs" 0 (List.length none);
  Alcotest.(check int) "all skipped: no cone" 0 (counter' "sta.cone_nets");
  Alcotest.(check int) "all skipped: no delay fill" 0 (counter' "sta.delay_fills")

(* A timing callback that itself runs the analysis (on another netlist)
   must not disturb the query it is called from. *)
let test_reentrant_callback () =
  let nl = Alu.netlist ~width:8 () in
  let base = aged_sp 0.3 in
  let timing =
    {
      base with
      Sta.cell_delay =
        (fun c ->
          ignore (Sta.endpoint_pairs ~timing:flat_clock ~clock_period_ps:850.0 adder);
          base.Sta.cell_delay c);
    }
  in
  match differential ~path_pairs:(`Every 11) ~constrain_inputs:false ~timing ~clock_period_ps:1300.0 nl with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg


let () =
  Alcotest.run "sta"
    [
      ( "paper example",
        [
          Alcotest.test_case "fresh timing clean" `Quick test_paper_example_fresh;
          Alcotest.test_case "aged setup violation" `Quick test_paper_example_aged_setup;
          Alcotest.test_case "hold violation via skew" `Quick test_paper_example_hold_via_skew;
        ] );
      ( "path enumeration",
        [
          Alcotest.test_case "violating path count" `Quick test_violating_path_count;
          Alcotest.test_case "unique pairs dedup" `Quick test_unique_pairs_dedup;
          Alcotest.test_case "describe path" `Quick test_describe_path;
          Alcotest.test_case "render report" `Quick test_render_report;
          Alcotest.test_case "truncation cap" `Quick test_truncation;
        ] );
      ( "aging integration",
        [
          Alcotest.test_case "aged timing source" `Quick test_aged_timing_source;
          Alcotest.test_case "em-aware timing" `Quick test_em_aware_timing;
        ] );
      ( "aged corners",
        [
          Alcotest.test_case "direct DFF-to-DFF pair" `Quick test_direct_dff_to_dff;
          Alcotest.test_case "single-cell aged path" `Quick test_single_cell_aged_path;
          Alcotest.test_case "chain delay summation" `Quick test_chain_delay_summation;
          Alcotest.test_case "skip drops only skipped pairs" `Quick
            test_skip_drops_only_skipped_pairs;
        ] );
      ("properties", [ prop_paths_within_bounds; prop_monte_carlo_paths_bounded ]);
      ( "compiled core",
        [
          prop_core_matches_oracle;
          Alcotest.test_case "alu16 and fpu16 aged corner vs oracle" `Quick
            test_core_matches_oracle_fixed;
          Alcotest.test_case "sweep allocation and counters" `Quick test_sweep_allocation;
          Alcotest.test_case "re-entrant timing callback" `Quick test_reentrant_callback;
        ] );
    ]
