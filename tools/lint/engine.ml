(* Strip leading "./" segments so reports are stable root-relative paths
   whatever form the caller handed the path in. *)
let normalize_rel rel =
  let rec strip rel =
    if String.length rel >= 2 && String.sub rel 0 2 = "./" then
      strip (String.sub rel 2 (String.length rel - 2))
    else rel
  in
  strip (String.map (fun c -> if c = '\\' then '/' else c) rel)

let allowed ~allows ~allow_files rule line =
  List.mem rule allow_files
  || List.exists (fun (r, l) -> r = rule && (l = line || l = line - 1)) allows

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scanned_dirs =
  [ "lib"; "bin"; "bench"; "tools"; "test"; "examples"; "perfbench" ]

let skip_dir name =
  name = "_build" || name = "_profile_cache"
  || (String.length name > 0 && name.[0] = '.')

(* Root-relative paths of the lintable files under [dir], sorted for
   deterministic reports. *)
let rec collect root rel_dir =
  let abs = if rel_dir = "" then root else Filename.concat root rel_dir in
  if not (Sys.file_exists abs && Sys.is_directory abs) then []
  else
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           let rel = if rel_dir = "" then name else rel_dir ^ "/" ^ name in
           let path = Filename.concat root rel in
           if Sys.is_directory path then
             if skip_dir name then [] else collect root rel
           else if
             Filename.check_suffix name ".ml"
             || Filename.check_suffix name ".mli"
             || name = "dune"
           then [ rel ]
           else [])

let collect_tree ~root = List.concat_map (fun d -> collect root d) scanned_dirs

let errors diags =
  List.filter (fun d -> d.Diag.severity = Diag.Error) diags
