module Rng = Harmony_numerics.Rng

type interaction =
  | Home
  | New_products
  | Best_sellers
  | Product_detail
  | Search_request
  | Search_results
  | Shopping_cart
  | Customer_registration
  | Buy_request
  | Buy_confirm
  | Order_inquiry
  | Order_display
  | Admin_request
  | Admin_confirm

type category = Browse | Order

let all =
  [|
    Home; New_products; Best_sellers; Product_detail; Search_request;
    Search_results; Shopping_cart; Customer_registration; Buy_request;
    Buy_confirm; Order_inquiry; Order_display; Admin_request; Admin_confirm;
  |]

let name = function
  | Home -> "Home"
  | New_products -> "NewProducts"
  | Best_sellers -> "BestSellers"
  | Product_detail -> "ProductDetail"
  | Search_request -> "SearchRequest"
  | Search_results -> "SearchResults"
  | Shopping_cart -> "ShoppingCart"
  | Customer_registration -> "CustomerRegistration"
  | Buy_request -> "BuyRequest"
  | Buy_confirm -> "BuyConfirm"
  | Order_inquiry -> "OrderInquiry"
  | Order_display -> "OrderDisplay"
  | Admin_request -> "AdminRequest"
  | Admin_confirm -> "AdminConfirm"

let category = function
  | Home | New_products | Best_sellers | Product_detail | Search_request
  | Search_results ->
      Browse
  | Shopping_cart | Customer_registration | Buy_request | Buy_confirm
  | Order_inquiry | Order_display | Admin_request | Admin_confirm ->
      Order

type mix = { label : string; weights : (interaction * float) array }

let normalize_weights weights =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
  if total <= 0.0 then invalid_arg "Tpcw: non-positive mix total";
  Array.map (fun (i, w) -> (i, w /. total)) weights

let make_mix label weights = { label; weights = normalize_weights weights }

(* Interaction percentages follow the TPC-W specification's three
   standard mixes (WIPSb / WIPS / WIPSo). *)
let browsing =
  make_mix "browsing"
    [|
      (Home, 29.00); (New_products, 11.00); (Best_sellers, 11.00);
      (Product_detail, 21.00); (Search_request, 12.00); (Search_results, 11.00);
      (Shopping_cart, 2.00); (Customer_registration, 0.82); (Buy_request, 0.75);
      (Buy_confirm, 0.69); (Order_inquiry, 0.30); (Order_display, 0.25);
      (Admin_request, 0.10); (Admin_confirm, 0.09);
    |]

let shopping =
  make_mix "shopping"
    [|
      (Home, 16.00); (New_products, 5.00); (Best_sellers, 5.00);
      (Product_detail, 17.00); (Search_request, 20.00); (Search_results, 17.00);
      (Shopping_cart, 11.60); (Customer_registration, 3.00); (Buy_request, 2.60);
      (Buy_confirm, 1.20); (Order_inquiry, 0.75); (Order_display, 0.66);
      (Admin_request, 0.10); (Admin_confirm, 0.09);
    |]

let ordering =
  make_mix "ordering"
    [|
      (Home, 9.12); (New_products, 0.46); (Best_sellers, 0.46);
      (Product_detail, 12.35); (Search_request, 14.53); (Search_results, 13.08);
      (Shopping_cart, 13.53); (Customer_registration, 12.86); (Buy_request, 12.73);
      (Buy_confirm, 10.18); (Order_inquiry, 0.25); (Order_display, 0.22);
      (Admin_request, 0.12); (Admin_confirm, 0.11);
    |]

let mix_of_label = function
  | "browsing" -> browsing
  | "shopping" -> shopping
  | "ordering" -> ordering
  | other -> invalid_arg ("Tpcw.mix_of_label: unknown mix " ^ other)

let weight mix interaction =
  let w = ref 0.0 in
  Array.iter (fun (i, v) -> if i = interaction then w := !w +. v) mix.weights;
  !w

let browse_fraction mix =
  Array.fold_left
    (fun acc (i, w) -> if category i = Browse then acc +. w else acc)
    0.0 mix.weights

let frequency_vector mix = Array.map (weight mix) all

let index i =
  let rec find k = if all.(k) = i then k else find (k + 1) in
  find 0

(* A mix compiled for drawing: per weights entry, its interaction's
   index in [all], its category, the running weight total over the
   whole mix and the running total within its category.  The running
   totals are the very sums the draw loops used to accumulate, in the
   same order, so a draw picks bit-for-bit the same interaction —
   without a float ref or an option per draw. *)
type sampler = {
  picks : int array;
  cats : category array;
  cum : floatarray;
  cat_cum : floatarray;
  browse_total : float;
  order_total : float;
}

let sampler mix =
  let n = Array.length mix.weights in
  let cum = Float.Array.make n 0.0 and cat_cum = Float.Array.make n 0.0 in
  let acc = ref 0.0 and browse = ref 0.0 and order = ref 0.0 in
  Array.iteri
    (fun j (i, w) ->
      acc := !acc +. w;
      Float.Array.set cum j !acc;
      let r = match category i with Browse -> browse | Order -> order in
      r := !r +. w;
      Float.Array.set cat_cum j !r)
    mix.weights;
  {
    picks = Array.map (fun (i, _) -> index i) mix.weights;
    cats = Array.map (fun (i, _) -> category i) mix.weights;
    cum;
    cat_cum;
    browse_total = !browse;
    order_total = !order;
  }

let draw s rng =
  let u = Rng.float rng 1.0 in
  let last = Array.length s.picks - 1 in
  let j = ref 0 in
  while !j < last && not (u < Float.Array.get s.cum !j) do incr j done;
  s.picks.(!j)

(* Draw within one category, proportional to the mix weights there. *)
let draw_in_category s rng cat =
  let total = match cat with Browse -> s.browse_total | Order -> s.order_total in
  if total <= 0.0 then draw s rng
  else begin
    let u = Rng.float rng total in
    let n = Array.length s.picks in
    let j = ref 0 in
    while !j < n && not (s.cats.(!j) = cat && u < Float.Array.get s.cat_cum !j) do
      incr j
    done;
    if !j < n then s.picks.(!j) else draw s rng
  end

let draw_next s rng ~persistence ~previous =
  if persistence < 0.0 || persistence >= 1.0 then
    invalid_arg "Tpcw.sample_next: persistence must be in [0, 1)";
  if previous >= 0 && Rng.float rng 1.0 < persistence then
    draw_in_category s rng (category all.(previous))
  else draw s rng

let sample rng mix = all.(draw (sampler mix) rng)

let sample_next rng mix ~persistence ~previous =
  let previous = match previous with Some i -> index i | None -> -1 in
  all.(draw_next (sampler mix) rng ~persistence ~previous)

let observed_frequencies rng mix ~samples =
  if samples <= 0 then invalid_arg "Tpcw.observed_frequencies: samples <= 0";
  let counts = Array.make (Array.length all) 0 in
  let s = sampler mix in
  for _ = 1 to samples do
    let k = draw s rng in
    counts.(k) <- counts.(k) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int samples) counts

type demand = {
  app_ms : float;
  db_ms : float;
  db_write_ms : float;
  response_kb : float;
  db_result_kb : float;
  cacheable : bool;
}

(* Service demands in milliseconds on 2004-class hardware (dual Athlon
   1.67 GHz, MySQL 3.23 without a query cache): dynamic pages cost
   50-150 ms of application CPU and database queries 30-320 ms, with
   Best Sellers and Buy Confirm the notorious heavyweights. *)
let demand = function
  | Home ->
      { app_ms = 70.0; db_ms = 30.0; db_write_ms = 0.0; response_kb = 24.0;
        db_result_kb = 2.0; cacheable = true }
  | New_products ->
      { app_ms = 100.0; db_ms = 160.0; db_write_ms = 0.0; response_kb = 32.0;
        db_result_kb = 12.0; cacheable = true }
  | Best_sellers ->
      { app_ms = 100.0; db_ms = 320.0; db_write_ms = 0.0; response_kb = 32.0;
        db_result_kb = 14.0; cacheable = true }
  | Product_detail ->
      { app_ms = 80.0; db_ms = 60.0; db_write_ms = 0.0; response_kb = 40.0;
        db_result_kb = 4.0; cacheable = true }
  | Search_request ->
      { app_ms = 50.0; db_ms = 0.0; db_write_ms = 0.0; response_kb = 16.0;
        db_result_kb = 0.0; cacheable = true }
  | Search_results ->
      { app_ms = 130.0; db_ms = 220.0; db_write_ms = 0.0; response_kb = 36.0;
        db_result_kb = 16.0; cacheable = false }
  | Shopping_cart ->
      { app_ms = 110.0; db_ms = 100.0; db_write_ms = 40.0; response_kb = 28.0;
        db_result_kb = 6.0; cacheable = false }
  | Customer_registration ->
      { app_ms = 90.0; db_ms = 60.0; db_write_ms = 0.0; response_kb = 20.0;
        db_result_kb = 2.0; cacheable = false }
  | Buy_request ->
      { app_ms = 130.0; db_ms = 130.0; db_write_ms = 70.0; response_kb = 28.0;
        db_result_kb = 8.0; cacheable = false }
  | Buy_confirm ->
      { app_ms = 150.0; db_ms = 160.0; db_write_ms = 160.0; response_kb = 24.0;
        db_result_kb = 10.0; cacheable = false }
  | Order_inquiry ->
      { app_ms = 50.0; db_ms = 30.0; db_write_ms = 0.0; response_kb = 16.0;
        db_result_kb = 2.0; cacheable = false }
  | Order_display ->
      { app_ms = 90.0; db_ms = 130.0; db_write_ms = 0.0; response_kb = 28.0;
        db_result_kb = 10.0; cacheable = false }
  | Admin_request ->
      { app_ms = 70.0; db_ms = 60.0; db_write_ms = 0.0; response_kb = 20.0;
        db_result_kb = 4.0; cacheable = false }
  | Admin_confirm ->
      { app_ms = 110.0; db_ms = 130.0; db_write_ms = 110.0; response_kb = 20.0;
        db_result_kb = 6.0; cacheable = false }

let mean_demand mix =
  let acc =
    Array.fold_left
      (fun acc (i, w) ->
        let d = demand i in
        {
          app_ms = acc.app_ms +. (w *. d.app_ms);
          db_ms = acc.db_ms +. (w *. d.db_ms);
          db_write_ms = acc.db_write_ms +. (w *. d.db_write_ms);
          response_kb = acc.response_kb +. (w *. d.response_kb);
          db_result_kb = acc.db_result_kb +. (w *. d.db_result_kb);
          cacheable = acc.cacheable;
        })
      { app_ms = 0.0; db_ms = 0.0; db_write_ms = 0.0; response_kb = 0.0;
        db_result_kb = 0.0; cacheable = false }
      mix.weights
  in
  let cacheable_weight =
    Array.fold_left
      (fun acc (i, w) -> if (demand i).cacheable then acc +. w else acc)
      0.0 mix.weights
  in
  { acc with cacheable = cacheable_weight > 0.5 }

let cacheable_fraction mix =
  Array.fold_left
    (fun acc (i, w) -> if (demand i).cacheable then acc +. w else acc)
    0.0 mix.weights

let write_fraction mix =
  Array.fold_left
    (fun acc (i, w) -> if (demand i).db_write_ms > 0.0 then acc +. w else acc)
    0.0 mix.weights
