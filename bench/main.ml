(* Benchmark entry point.

   Running [dune exec bench/main.exe] regenerates every table and figure of
   the paper's evaluation (Section 7) via Xmark_core.Experiments, then runs
   a Bechamel micro-benchmark suite with one Test.make per exhibit — a
   statistically sampled kernel of the workload behind each table/figure.

   Environment:
     XMARK_FACTOR   scaling factor for the table experiments (default 0.01)
     XMARK_SKIP_MICRO   set to skip the bechamel suite. *)

open Bechamel
open Toolkit

module Runner = Xmark_core.Runner
module Experiments = Xmark_core.Experiments

let factor = Experiments.default_factor

(* Kernels reused by the micro-benchmarks; documents and stores are built
   once, outside the timed region. *)
let micro_factor = 0.002

let doc = lazy (Xmark_xmlgen.Generator.to_string ~factor:micro_factor ())

let store_of sys =
  lazy (Runner.load ~source:(`Text (Lazy.force doc)) sys).Runner.store

let store_a = store_of Runner.A
let store_b = store_of Runner.B
let store_c = store_of Runner.C
let store_d = store_of Runner.D

let bench_query sys store q =
  Test.make
    ~name:(Printf.sprintf "Q%d-%s" q (match sys with
      | Runner.A -> "A" | Runner.B -> "B" | Runner.C -> "C" | Runner.D -> "D"
      | Runner.E -> "E" | Runner.F -> "F" | Runner.G -> "G"))
    (Staged.stage (fun () -> ignore (Runner.run (Lazy.force store) q)))

let micro_tests () =
  Test.make_grouped ~name:"xmark"
    [
      (* Figure 3 / genperf kernel: document generation *)
      Test.make ~name:"fig3-generate"
        (Staged.stage (fun () ->
             ignore (Xmark_xmlgen.Generator.measure ~factor:micro_factor ())));
      (* Table 1 kernel: SAX scan and a bulkload *)
      Test.make ~name:"table1-sax-scan"
        (Staged.stage (fun () ->
             ignore (Xmark_xml.Sax.scan (Xmark_xml.Sax.of_string (Lazy.force doc)))));
      Test.make ~name:"table1-bulkload-D"
        (Staged.stage (fun () ->
             ignore (Xmark_store.Backend_mainmem.of_string ~level:`Full (Lazy.force doc))));
      (* Table 2 kernel: query compilation (parsing; metadata resolution is
         measured in the table itself via catalog counters) *)
      Test.make ~name:"table2-parse-Q8"
        (Staged.stage (fun () ->
             ignore (Xmark_xquery.Parser.parse_query (Xmark_core.Queries.text 8))));
      bench_query Runner.B store_b 1;
      (* Table 3 kernels: one representative query per architecture family *)
      bench_query Runner.A store_a 1;
      bench_query Runner.D store_d 1;
      bench_query Runner.A store_a 2;
      bench_query Runner.C store_c 2;
      bench_query Runner.D store_d 6;
      bench_query Runner.A store_a 6;
      bench_query Runner.C store_c 8;
      bench_query Runner.D store_d 8;
      (* substrate kernel: the ordered index *)
      Test.make ~name:"btree-range-scan"
        (Staged.stage
           (let tree = Xmark_relational.Btree.create () in
            let () =
              for i = 0 to 9999 do
                Xmark_relational.Btree.insert tree (Xmark_relational.Value.Num (float_of_int (i mod 500))) i
              done
            in
            fun () ->
              ignore
                (Xmark_relational.Btree.range
                   ~lower:(Xmark_relational.Value.Num 100.0, true)
                   ~upper:(Xmark_relational.Value.Num 110.0, false)
                   tree)));
      (* Figure 4 kernel: the embedded processor's per-query overhead *)
      Test.make ~name:"fig4-G-Q1"
        (Staged.stage
           (let g = (Runner.load ~source:(`Text (Lazy.force doc)) Runner.G).Runner.store in
            fun () -> ignore (Runner.run g 1)));
    ]

let run_micro () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "== Bechamel micro-benchmarks (ns per run, OLS estimate) ==\n\n";
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) ->
          let r2 =
            match Analyze.OLS.r_square v with Some r -> Printf.sprintf "%.4f" r | None -> "-"
          in
          Printf.printf "%-28s %14.0f ns/run   (r² %s)\n" name est r2
      | Some [] | None -> Printf.printf "%-28s (no estimate)\n" name)
    (List.sort compare rows);
  Printf.printf "\n"

let () =
  Printf.printf "XMark benchmark harness — factor %g (override with XMARK_FACTOR)\n\n" factor;
  Experiments.run_all ~factor ();
  if Sys.getenv_opt "XMARK_SKIP_MICRO" = None then run_micro ()
