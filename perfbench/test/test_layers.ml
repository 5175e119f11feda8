(* Tests for the benchmark's self-time arithmetic: interval unions, self
   time of nested spans, overlapping children absorbed from two domains,
   the per-layer grouping and the unattributed remainder. *)

let span ?(children = []) name lo hi =
  {
    Telemetry.sp_name = name;
    sp_cat = "test";
    sp_start_ns = lo;
    sp_end_ns = hi;
    sp_args = [];
    sp_children = children;
  }

let check_int = Alcotest.(check int)

let test_covered () =
  check_int "empty" 0 (Layers.covered_ns []);
  check_int "disjoint" 30 (Layers.covered_ns [ (0, 10); (20, 40) ]);
  check_int "overlapping, unsorted" 40 (Layers.covered_ns [ (30, 50); (10, 35) ]);
  check_int "contained" 100 (Layers.covered_ns [ (0, 100); (10, 20); (50, 60) ]);
  check_int "touching" 20 (Layers.covered_ns [ (0, 10); (10, 20) ]);
  check_int "empty intervals ignored" 5 (Layers.covered_ns [ (3, 3); (7, 2); (0, 5) ])

(* a [0,100] > b [10,40] > c [20,30]: self a = 70, b = 20, c = 10 *)
let nested = span "a" 0 100 ~children:[ span "b" 10 40 ~children:[ span "c" 20 30 ] ]

let test_nested () =
  check_int "a" 70 (Layers.self_ns nested);
  match Layers.by_name [ nested ] with
  | [ ("a", a); ("b", b); ("c", c) ] ->
    check_int "a self" 70 a.Layers.self_ns;
    check_int "b self" 20 b.Layers.self_ns;
    check_int "c self" 10 c.Layers.self_ns;
    check_int "b total" 30 b.Layers.total_ns;
    check_int "selves sum to the root" 100
      (a.Layers.self_ns + b.Layers.self_ns + c.Layers.self_ns)
  | l -> Alcotest.failf "unexpected names: %s" (String.concat "," (List.map fst l))

(* The pool absorbs two workers' spans under the coordinator: siblings
   overlap, so the parent's self time is its duration minus their union
   (100 - 80), not minus their sum (which would go negative). *)
let two_domains =
  span "fleet.run" 0 100
    ~children:
      [
        span "fleet.item" 10 60 ~children:[ span "vega.aged_sta" 20 50 ];
        span "fleet.item" 30 90;
      ]

let test_two_domains () =
  check_int "coordinator self" 20 (Layers.self_ns two_domains);
  let totals = Layers.by_name [ two_domains ] in
  let item = List.assoc "fleet.item" totals in
  check_int "items counted" 2 item.Layers.count;
  check_int "item total" 110 item.Layers.total_ns;
  check_int "item self" 80 item.Layers.self_ns

(* A child that outlives its parent (a span closed late by a virtual
   close) only covers the parent's own interval. *)
let test_clipped () =
  check_int "clipped child" 60 (Layers.self_ns (span "a" 0 100 ~children:[ span "b" 60 150 ]))

let test_layers_and_remainder () =
  let layers = Layers.layer_self_ns [ two_domains ] in
  check_int "sta self" 30 (List.assoc "sta" layers);
  check_int "fleet.item host self" 80 (List.assoc "fleet.item" layers);
  Alcotest.(check bool) "driver spans are no layer" false (List.mem_assoc "fleet.run" layers);
  (* driver self 20 plus 30 ns of the pass outside the root span *)
  check_int "unattributed" 50 (Layers.unattributed_ns ~pass_ns:130 [ two_domains ])

(* The same arithmetic over a forest the Telemetry recorder built. *)
let test_recorded () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ~step_ns:10 ()) ();
  Telemetry.with_span "vega.phase1" (fun () ->
      Telemetry.with_span "vega.aged_sta" (fun () -> ());
      Telemetry.with_span "vega.profile" (fun () -> ()));
  Telemetry.disable ();
  let forest = (Telemetry.snapshot ()).Telemetry.ss_spans in
  let root = List.hd forest in
  let children =
    List.fold_left (fun acc c -> acc + Layers.duration_ns c) 0 root.Telemetry.sp_children
  in
  check_int "self = duration - children" (Layers.duration_ns root - children) (Layers.self_ns root);
  let layers = Layers.layer_self_ns forest in
  check_int "sta" 10 (List.assoc "sta" layers);
  check_int "profile" 10 (List.assoc "profile" layers)

let () =
  Alcotest.run "perfbench"
    [
      ( "self time",
        [
          Alcotest.test_case "interval union" `Quick test_covered;
          Alcotest.test_case "nested spans" `Quick test_nested;
          Alcotest.test_case "two-domain children" `Quick test_two_domains;
          Alcotest.test_case "clipped child" `Quick test_clipped;
          Alcotest.test_case "layers and remainder" `Quick test_layers_and_remainder;
          Alcotest.test_case "recorded forest" `Quick test_recorded;
        ] );
    ]
