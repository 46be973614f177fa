(* Clock, allocation and statistics helpers shared by the workloads.

   Allocation is read with [Gc.minor_words], which OCaml 5 keeps per
   domain: a reading only sees what the calling domain allocated, so
   work another domain did inside a counted region would be missing
   from it.  Every counted region ([timed], and each span) therefore
   also reads [Gc.quick_stat], which sums all domains, and records in
   [foreign_words] any region in which other domains allocated more
   than that sum's slack.  A run with any such region fails its check
   instead of reporting an under-count; [alloc_self_check] in
   perfbench.ml shows that a spawned domain's allocation inside a
   counted region is caught. *)

let now = Unix.gettimeofday

(* Minor words allocated so far by the calling domain. *)
let words () = Gc.minor_words ()

(* Minor words allocated so far by all domains, as the runtime has
   summed them: another domain's at each of its minor collections and
   when it ends, the calling domain's at its own minor collections.
   The calling domain's part therefore lags [words ()] by at most its
   minor heap, [slack] words. *)
let all_words () = (Gc.quick_stat ()).Gc.minor_words

let slack = float_of_int (Gc.get ()).Gc.minor_heap_size

(* Words other domains allocated inside counted regions, summed over
   the regions in which they exceeded [slack]. *)
let foreign_words = ref 0.0

(* Adds to [foreign_words] what other domains allocated in a region
   that began when [all_words] read [all0] and in which the calling
   domain allocated [own] words.  Called after the region's own
   [words] reading, so the [Gc.quick_stat] calls stay out of it. *)
let settle ~all0 ~own =
  let foreign = all_words () -. all0 -. own in
  if foreign > slack then foreign_words := !foreign_words +. foreign

(* [timed f] is [f ()] with its host seconds and the calling domain's
   minor words, checked by [settle]. *)
let timed f =
  let all0 = all_words () in
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = words () in
  settle ~all0 ~own:(w1 -. w0);
  (r, t1 -. t0, w1 -. w0)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear-interpolated quantile of an unsorted sample, [p] in [0, 1]. *)
let quantile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  if Array.length xs = 0 then nan else sum xs /. float_of_int (Array.length xs)

(* Peak resident set of a process, in MiB, from /proc (VmHWM). *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB"
                (fun kb -> kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* A hex digest of rendered output, fed incrementally. *)
module Digest_acc = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  (* Folds [text] into the running digest so memory stays bounded. *)
  let add t text =
    let d = Digest.string (Buffer.contents t ^ text) in
    Buffer.clear t;
    Buffer.add_string t d

  let hex t = Digest.to_hex (Digest.string (Buffer.contents t))
end
